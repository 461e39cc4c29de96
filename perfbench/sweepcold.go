package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
	"repro/internal/sweep"
)

// prepare renders the reference for the inputs, derives every sweep's
// expected lines, and checks the digest of the first inputs (the first
// epoch's, or sweep-cold's first variant) against the committed one at
// the default seed. The traced run's direct measurements cover the same
// first inputs, so its sim.instructions and sim.cycles equal the sums
// printed here.
func (b *bench) prepare(ctx context.Context, all, first []*sweepInput) (*reference, map[*sweepInput]*expectation, error) {
	ref, err := renderReference(ctx, all)
	if err != nil {
		return nil, nil, err
	}
	exps := make(map[*sweepInput]*expectation, len(all))
	for _, in := range all {
		e, err := ref.expect(in)
		if err != nil {
			return nil, nil, err
		}
		exps[in] = e
	}
	var instrs, cycles uint64
	for _, j := range distinctJobs(first) {
		res := ref.results[j.Key()]
		instrs += res.Instructions
		cycles += res.Cycles
	}
	b.note("model: sim.instructions %d, sim.cycles %d over the first inputs' distinct jobs", instrs, cycles)
	got := digest(first, expList(first, exps))
	b.note("reference: %d distinct jobs rendered in %.3f s, digest %s", len(ref.jobs), ref.wall.Seconds(), got)
	if b.seed == defaultSeed {
		want, err := referenceDigest(b.workload)
		if err != nil {
			return nil, nil, err
		}
		if got != want {
			b.mismatch = append(b.mismatch, fmt.Sprintf(
				"reference digest %s differs from the committed %s: the model's output changed", got, want))
		}
	}
	return ref, exps, nil
}

func expList(ins []*sweepInput, exps map[*sweepInput]*expectation) []*expectation {
	out := make([]*expectation, len(ins))
	for i, in := range ins {
		out[i] = exps[in]
	}
	return out
}

// Per-run work of sweep-cold: epochs per requested second (each runs
// every variant, about 432 jobs), and timed set-ups per epoch.
const (
	coldEpochsPerSecond = 0.15
	coldSetUps          = 12
)

// coldSystem is what rfbatch holds for one invocation: the parsed specs'
// jobs and a runner over a fresh disk store.
type coldSystem struct {
	dir    string
	st     *store.Store
	runner *sweep.Runner
	jobs   [][]sweep.Job
}

// sweepCold runs the fixed matrix the way rfbatch does. Each epoch sets
// up like one rfbatch invocation — parse and expand the specs, open a
// fresh disk store behind sweep.Tiered(MemCache, store), build a default
// sweep.Runner — then runs the specs one after another and closes the
// store. Nothing is cached at the start of an epoch. Every epoch runs
// all seeded variants of the matrix, so its cost repeats from epoch to
// epoch and varies little with the seed.
func sweepCold(ctx context.Context, b *bench) error {
	variants, err := coldSweeps(b.seed)
	if err != nil {
		return err
	}
	var ins []*sweepInput
	var specs [][]byte
	for _, vs := range variants {
		ins = append(ins, vs...)
		for _, in := range vs {
			js, err := json.Marshal(in.spec)
			if err != nil {
				return err
			}
			specs = append(specs, js)
		}
	}
	_, exps, err := b.prepare(ctx, ins, variants[0])
	if err != nil {
		return err
	}
	var ls layerState
	opened := 0
	open := func(specs [][]byte) (*coldSystem, error) {
		opened++
		sys := &coldSystem{dir: filepath.Join(b.dir, fmt.Sprintf("store-%d", opened))}
		for _, js := range specs {
			sp, err := sweep.ParseSpec(bytes.NewReader(js))
			if err != nil {
				return nil, err
			}
			jobs, err := sp.Jobs()
			if err != nil {
				return nil, err
			}
			sys.jobs = append(sys.jobs, jobs)
		}
		st, err := store.Open(sys.dir, store.Options{})
		if err != nil {
			return nil, err
		}
		sys.st = st
		sys.runner = sweep.NewRunner(sweep.RunnerConfig{Cache: sweep.Tiered(sweep.NewMemCache(), b.storeCache(st, &ls))})
		return sys, nil
	}
	discard := func(sys *coldSystem) {
		sys.st.Close()
		os.RemoveAll(sys.dir)
	}

	var t totals
	epochs := b.scale(coldEpochsPerSecond, 3)
	for e := 0; e < epochs; e++ {
		traced := b.tr != nil && e%2 == 1
		if b.tr != nil {
			b.tr.active.Store(traced)
		}
		sys, err := setUp(&t, coldSetUps, func() (*coldSystem, error) { return open(specs) }, discard)
		if err != nil {
			return err
		}
		p := startPhase()
		w := t.begin()
		ops := make([]op, len(ins))
		for i, in := range ins {
			i, in := i, in
			req := fmt.Sprintf("e%d/%s", e, in.spec.Name)
			ops[i] = op{weight: int64(len(in.jobs)), run: func(ctx context.Context) (int64, error) {
				var first time.Time
				t0 := time.Now()
				outs, err := sys.runner.RunOutcomesContext(ctx, sys.jobs[i], 0, func(sweep.Progress) {
					if first.IsZero() {
						first = time.Now()
					}
				})
				end := time.Now()
				if err != nil {
					return 0, err
				}
				var buf bytes.Buffer
				lines := make([][]byte, len(outs))
				for k, o := range outs {
					buf.Reset()
					if err := sweep.WriteRow(&buf, sweep.RowOf(sys.jobs[i][k], o)); err != nil {
						return 0, err
					}
					lines[k] = bytes.Clone(buf.Bytes())
				}
				failed := exps[in].check(lines)
				t.sweepDone(t0, first, end, int64(len(in.jobs)), failed, exps[in].instructions)
				b.tr.root("sweep.run", req, in.keys, t0, end)
				return failed, nil
			}}
		}
		closedLoop(ctx, 1, ops, &b.t)
		err = sys.st.Close()
		ls.wall(traced, t.end(w))
		t.phaseDone(p)
		ls.addStore(sys.st)
		ls.addCache(sys.runner.CacheStats())
		os.RemoveAll(sys.dir)
		if err != nil {
			return err
		}
	}
	if b.tr != nil {
		b.tr.active.Store(false)
	}
	if err := b.setEndToEnd(&t); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	b.setLayerState(&ls)
	return b.measureDirect(ctx, variants[0], exps)
}
