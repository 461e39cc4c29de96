package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the layer's exported API. Parent is the
// index of the enclosing span, or -1 for a root; Req is the sweep the
// span served.
type span struct {
	Name   string  `json:"name"`
	Req    string  `json:"req"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	// key is the job a store or worker span handled; it attributes
	// spans recorded below the API surface to the sweep that asked for
	// that job.
	key sweep.Key
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, and an inactive one (the untraced rounds of a traced run)
// neither.
type tracer struct {
	t0     time.Time
	active atomic.Bool

	mu    sync.Mutex
	spans []span
	// sweepKeys maps a root span's request to the jobs it asked for.
	sweepKeys map[string]map[sweep.Key]bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sweepKeys: make(map[string]map[sweep.Key]bool)}
}

func (t *tracer) on() bool { return t != nil && t.active.Load() }

func (t *tracer) at(ts time.Time) float64 { return ms(ts.Sub(t.t0)) }

// root records a sweep's root span and the jobs it covers, returning its
// index for children.
func (t *tracer) root(name, req string, jobKeys []sweep.Key, start, end time.Time) int {
	if !t.on() {
		return -1
	}
	keys := make(map[sweep.Key]bool, len(jobKeys))
	for _, k := range jobKeys {
		keys[k] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepKeys[req] = keys
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: -1, Start: t.at(start), End: t.at(end)})
	return len(t.spans) - 1
}

// child records a span under a known parent.
func (t *tracer) child(name string, parent int, start, end time.Time) {
	if !t.on() || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	req := t.spans[parent].Req
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: t.at(start), End: t.at(end)})
}

// keyed records a span whose parent is found later (see attribute): a
// call into a layer the benchmark reaches only through the program,
// identified by the job it handled.
func (t *tracer) keyed(name string, k sweep.Key, start, end time.Time) {
	if !t.on() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: -1, Start: t.at(start), End: t.at(end), key: k})
}

// attribute parents every keyed span: among the root spans whose sweep
// asked for the span's job and whose interval contains the span's start,
// the earliest-started one wins, and within it the innermost child
// covering that instant. Keyed spans no sweep claims stay roots with an
// empty request (for instance store writes during set-up).
func attribute(spans []span, sweepKeys map[string]map[sweep.Key]bool) {
	children := make(map[int][]int)
	var roots []int
	for i, s := range spans {
		switch {
		case s.key != "":
		case s.Parent < 0:
			roots = append(roots, i)
		default:
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].Start < spans[roots[b]].Start })
	for i := range spans {
		s := &spans[i]
		if s.key == "" {
			continue
		}
		for _, r := range roots {
			rs := spans[r]
			if rs.Start > s.Start {
				break
			}
			if rs.End < s.Start || !sweepKeys[rs.Req][s.key] {
				continue
			}
			s.Parent, s.Req = r, rs.Req
			for _, c := range children[r] {
				if cs := spans[c]; cs.Start <= s.Start && s.Start <= cs.End {
					s.Parent = c
					break
				}
			}
			break
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) []float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]float64{lo, hi})
			}
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(kids[i])
	}
	return self
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, end := 0.0, -1e300
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// layerSummary is one row of the per-layer table.
type layerSummary struct {
	Layer   string
	Spans   int
	TotalMS float64
	SelfMS  float64
}

func summarize(spans []span, self []float64) []layerSummary {
	by := make(map[string]*layerSummary)
	for i, s := range spans {
		l := by[s.layer()]
		if l == nil {
			l = &layerSummary{Layer: s.layer()}
			by[s.layer()] = l
		}
		l.Spans++
		l.TotalMS += s.dur()
		l.SelfMS += self[i]
	}
	var out []layerSummary
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// report writes the per-layer table and the blocking steps of the
// median-latency sweep to w, and returns the self time per sweep of each
// layer.
func report(w io.Writer, spans []span, self []float64) map[string]float64 {
	rows := summarize(spans, self)
	sweeps := 0
	var roots []int
	for i, s := range spans {
		if s.Parent < 0 && s.Req != "" && s.key == "" {
			sweeps++
			roots = append(roots, i)
		}
	}
	perSweep := make(map[string]float64)
	fmt.Fprintf(w, "traced: %d spans over %d sweeps\n", len(spans), sweeps)
	fmt.Fprintf(w, "  %-10s %8s %12s %12s %14s\n", "layer", "spans", "total_ms", "self_ms", "self_ms/sweep")
	for _, r := range rows {
		ps := 0.0
		if sweeps > 0 {
			ps = r.SelfMS / float64(sweeps)
		}
		perSweep[r.Layer] = ps
		fmt.Fprintf(w, "  %-10s %8d %12.3f %12.3f %14.4f\n", r.Layer, r.Spans, r.TotalMS, r.SelfMS, ps)
	}
	if len(roots) == 0 {
		return perSweep
	}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].dur() < spans[roots[b]].dur() })
	r := roots[len(roots)/2]
	fmt.Fprintf(w, "blocking steps of median sweep %s (%.3f ms):\n", spans[r].Req, spans[r].dur())
	fmt.Fprintf(w, "  %-28s %10s %10s %10s\n", "span", "at_ms", "dur_ms", "self_ms")
	// Runs of same-named siblings (a sweep's store reads, say) print as
	// one line with their count and summed durations.
	var walk func(i, depth int)
	walk = func(i, depth int) {
		var kids []int
		for j, c := range spans {
			if c.Parent == i {
				kids = append(kids, j)
			}
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		for k := 0; k < len(kids); {
			n, dur, selfSum := 1, spans[kids[k]].dur(), self[kids[k]]
			for k+n < len(kids) && spans[kids[k+n]].Name == spans[kids[k]].Name {
				dur += spans[kids[k+n]].dur()
				selfSum += self[kids[k+n]]
				n++
			}
			s := spans[kids[k]]
			name := strings.Repeat("  ", depth) + s.Name
			if n > 1 {
				name += fmt.Sprintf(" ×%d", n)
			}
			fmt.Fprintf(w, "  %-28s %10.3f %10.3f %10.3f\n", name, s.Start-spans[r].Start, dur, selfSum)
			if n == 1 {
				walk(kids[k], depth+1)
			}
			k += n
		}
	}
	fmt.Fprintf(w, "  %-28s %10.3f %10.3f %10.3f\n", spans[r].Name, 0.0, spans[r].dur(), self[r])
	walk(r, 1)
	fmt.Fprintf(w, "  (self time of the root is waiting no traced layer call covers)\n")
	return perSweep
}

// dump writes every span as JSON to path.
func dump(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
