package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/warehouse"
	"repro/rf/api"
)

// reference is the local render every delivered row is checked against:
// one default sweep.Runner pass over every distinct job a run asks for.
type reference struct {
	results map[sweep.Key]sim.Result
	// jobs lists the distinct jobs in first-seen order.
	jobs []sweep.Job
	// wall is how long the render took.
	wall time.Duration
}

// distinctJobs lists the inputs' jobs once each, in first-seen order.
func distinctJobs(ins []*sweepInput) []sweep.Job {
	var jobs []sweep.Job
	seen := make(map[sweep.Key]bool)
	for _, in := range ins {
		for i, j := range in.jobs {
			if k := in.keys[i]; !seen[k] {
				seen[k] = true
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// unsimulable reports jobs the simulator could not run; the workload
// cannot be measured, and the run fails with every such job counted as a
// failed operation.
type unsimulable struct{ failures []string }

func (u *unsimulable) Error() string {
	return fmt.Sprintf("%d jobs cannot be simulated; first: %s", len(u.failures), u.failures[0])
}

// renderReference simulates every distinct job of the inputs locally,
// one job at a time, so the rows of the program's lockstep batches are
// checked against the solo simulation path. A job whose simulation
// panics (the simulator's deadlock guard, for one) is collected rather
// than allowed to end the process.
func renderReference(ctx context.Context, ins []*sweepInput) (*reference, error) {
	ref := &reference{results: make(map[sweep.Key]sim.Result), jobs: distinctJobs(ins)}
	var mu sync.Mutex
	bad := &unsimulable{}
	simulate := func(j sweep.Job) (res sim.Result) {
		defer func() {
			if r := recover(); r != nil {
				msg, _, _ := strings.Cut(fmt.Sprint(r), "\n")
				mu.Lock()
				bad.failures = append(bad.failures, fmt.Sprintf("%s seed %d on %s: %s", j.Profile.Name, j.Seed, j.Config.RF.Name, msg))
				mu.Unlock()
			}
		}()
		return sweep.Simulate(j)
	}
	start := time.Now()
	outs, err := sweep.NewRunner(sweep.RunnerConfig{Simulate: simulate}).RunOutcomesContext(ctx, ref.jobs, 0, nil)
	ref.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reference render: %w", err)
	}
	if len(bad.failures) > 0 {
		return nil, bad
	}
	for _, o := range outs {
		ref.results[o.Key] = o.Result
	}
	return ref, nil
}

// expectation holds the exact NDJSON lines a sweep must deliver: per
// job, the line with "cached":false and the line with "cached":true.
type expectation struct {
	lines [][2][]byte
	rows  []sweep.Row
	// instructions sums the sweep's simulated instructions.
	instructions uint64
}

// expect renders the lines the sweep's rows must match byte for byte.
func (ref *reference) expect(in *sweepInput) (*expectation, error) {
	e := &expectation{}
	for i, j := range in.jobs {
		k := in.keys[i]
		res, ok := ref.results[k]
		if !ok {
			return nil, fmt.Errorf("job %s has no reference result", k)
		}
		var pair [2][]byte
		for c, cached := range []bool{false, true} {
			var buf bytes.Buffer
			row := sweep.RowOf(j, sweep.Outcome{Result: res, Key: k, Cached: cached})
			if err := sweep.WriteRow(&buf, row); err != nil {
				return nil, err
			}
			pair[c] = buf.Bytes()
			if !cached {
				e.rows = append(e.rows, row)
			}
		}
		e.lines = append(e.lines, pair)
		e.instructions += res.Instructions
	}
	return e, nil
}

// check counts the delivered lines that are missing, surplus, or differ
// from the expectation in any byte other than the cached flag.
func (e *expectation) check(got [][]byte) (failed int64) {
	for i, want := range e.lines {
		if i >= len(got) || !(bytes.Equal(got[i], want[0]) || bytes.Equal(got[i], want[1])) {
			failed++
		}
	}
	if len(got) > len(e.lines) {
		failed += int64(len(got) - len(e.lines))
	}
	return failed
}

// expectQuery evaluates a query locally over the sweep's reference rows;
// the server's answer must encode to the same JSON.
func expectQuery(in *sweepInput, e *expectation, q *api.Query) ([]byte, error) {
	seg, err := warehouse.SegmentFromRows(q.Sweep, in.spec.Name, in.jobs, e.rows)
	if err != nil {
		return nil, err
	}
	res, err := warehouse.Eval([]*warehouse.Segment{seg}, q)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// digest is a SHA-256 over every sweep's expected lines (cached flag
// false), sweeps ordered by name. It changes exactly when the model's
// output for the workload's inputs changes.
func digest(ins []*sweepInput, exps []*expectation) string {
	idx := make([]int, len(ins))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ins[idx[a]].spec.Name < ins[idx[b]].spec.Name })
	h := sha256.New()
	for _, i := range idx {
		fmt.Fprintf(h, "%s\n", ins[i].spec.Name)
		for _, l := range exps[i].lines {
			h.Write(l[0])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// defaultSeed is the seed the committed reference digests were made at.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// referenceDigest returns the committed digest of a workload's inputs at
// defaultSeed.
func referenceDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := m[workload]
	if !ok {
		return "", fmt.Errorf("digests.json has no digest for %s", workload)
	}
	return d, nil
}
