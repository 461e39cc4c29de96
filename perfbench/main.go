// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in-process against the exported API of every layer
// (trace, sim, sweep, store, wal, warehouse, server, dispatch), checks
// every delivered row against a local render, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and how to read the output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	nproc    int
	// dir is the run's scratch directory inside the checkout.
	dir string
	// tr is nil in untraced runs.
	tr *tracer

	t tally
	// metrics holds the end-to-end metrics, layers the per-layer ones;
	// the verdict carries one of the two.
	metrics, layers map[string]metric
	// mismatch records a correctness failure that is not an operation,
	// such as a changed reference digest.
	mismatch []string
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) layer(name string, v float64) {
	b.layers[name] = metric{Value: v, Unit: layerUnit(name)}
}

// note prints a human-readable line; the verdict is always printed last.
func (b *bench) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// scale returns how many units of fixed work a run does: perSecond units
// per requested second, at least least. The work per run is fixed by
// --seconds, not by how fast the machine is, so every count and memory
// figure a run yields repeats from run to run.
func (b *bench) scale(perSecond float64, least int) int {
	return max(least, int(float64(b.seconds)*perSecond+0.5))
}

// phase measures one epoch's timed phase: its wall time, allocation,
// and the live heap at its end.
type phase struct {
	start time.Time
	ms0   runtime.MemStats
}

func startPhase() *phase {
	p := &phase{}
	runtime.GC()
	runtime.ReadMemStats(&p.ms0)
	p.start = time.Now()
	return p
}

// totals accumulates the end-to-end figures over a run's epochs. An
// epoch is one freshly set-up system: its set-up is timed, then its
// timed phase, then it is torn down untimed. Spreading a run over
// several epochs makes its medians robust to slow spells of a shared
// machine.
type totals struct {
	setups, heaps []float64
	// walls, rates and minstrs hold one entry per unit of fixed work
	// (a round or an epoch): its wall time, rows per second and
	// simulated million instructions per second.
	walls, rates, minstrs []float64
	timed                 time.Duration
	alloc                 uint64
	rows, instrs          atomic.Int64
	sweepMS, firstMS      samples
}

// setUp sets a fresh system up n times, timing each, and returns the
// last; the others are torn down at once. Several set-ups per epoch give
// the setup_s median enough samples to be steady. Before each one the
// file system is synced, untimed, so a set-up's own fsyncs do not wait
// on writeback left by an earlier teardown.
func setUp[T any](t *totals, n int, setup func() (T, error), teardown func(T)) (T, error) {
	var v T
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(v)
		}
		syscall.Sync()
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
	}
	return v, nil
}

// work marks the start of one unit of fixed work.
type work struct {
	start        time.Time
	rows, instrs int64
}

func (t *totals) begin() work {
	return work{time.Now(), t.rows.Load(), t.instrs.Load()}
}

// end records the unit of work begun at w and returns its wall time.
func (t *totals) end(w work) time.Duration {
	d := time.Since(w.start)
	t.walls = append(t.walls, d.Seconds())
	t.rates = append(t.rates, float64(t.rows.Load()-w.rows)/d.Seconds())
	t.minstrs = append(t.minstrs, float64(t.instrs.Load()-w.instrs)/d.Seconds()/1e6)
	return d
}

// phaseDone ends p; call it while the system under test is still up, so
// the retained heap includes its state.
func (t *totals) phaseDone(p *phase) {
	t.timed += time.Since(p.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc += ms.TotalAlloc - p.ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms)
	t.heaps = append(t.heaps, float64(ms.HeapAlloc)/(1<<20))
}

// sweepDone records one delivered sweep.
func (t *totals) sweepDone(start, first, end time.Time, jobs, failed int64, instrs uint64) {
	if first.IsZero() { // no row arrived; the check counts them failed
		first = end
	}
	t.sweepMS.add(ms(end.Sub(start)))
	t.firstMS.add(ms(first.Sub(start)))
	t.rows.Add(jobs - min(failed, jobs))
	if failed == 0 {
		t.instrs.Add(int64(instrs))
	}
}

// setEndToEnd records the end-to-end metrics.
func (b *bench) setEndToEnd(t *totals) error {
	secs := t.timed.Seconds()
	rows := t.rows.Load()
	b.set("setup_s", "s", median(t.setups))
	b.set("wall_s", "s", median(t.walls))
	b.set("jobs_per_s", "1/s", median(t.rates))
	b.set("sim_minstr_per_s", "Minstr/s", median(t.minstrs))
	b.set("heap_retained_mb", "MiB", median(t.heaps))
	b.set("alloc_kb_per_job", "KiB", float64(t.alloc)/1024/float64(max(rows, 1)))
	sweepMS, firstMS := t.sweepMS.values(), t.firstMS.values()
	for _, m := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"sweep_ms_p50", sweepMS, 50},
		{"sweep_ms_p90", sweepMS, 90},
		{"first_row_ms_p50", firstMS, 50},
	} {
		v, err := tailed(m.name, m.xs, m.p)
		if err != nil {
			return err
		}
		b.set(m.name, "ms", v)
	}
	if p, v, ok := highestTail(sweepMS); ok {
		b.note("sweeps: %d samples, p50 %.3f ms, highest tail p%g %.3f ms", len(sweepMS), b.metrics["sweep_ms_p50"].Value, p, v)
	}
	b.note("timed: %d epochs, %d set-ups, %d wall samples, %.3f s, %d rows verified",
		len(t.heaps), len(t.setups), len(t.walls), secs, rows)
	ws := sorted(t.walls)
	b.note("wall samples: min %.4f, median %.4f, max %.4f s", ws[0], median(ws), ws[len(ws)-1])
	if len(t.walls) <= 16 {
		b.note("wall samples in run order: %.4f s", t.walls)
	}
	return nil
}

var workloads = map[string]func(context.Context, *bench) error{
	"sweep-cold":   sweepCold,
	"service-warm": serviceWarm,
	"fleet-cold":   fleetCold,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sweep-cold, service-warm or fleet-cold")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: selects benchmarks, trace seeds and submission order")
		seconds = flag.Int("seconds", 20, "scales the fixed work of a run: about this many seconds of timed work on a 2-core machine")
		traced  = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep-cold|service-warm|fleet-cold [--seed n] [--seconds n] [--trace 0|1]")
		return 2
	}
	// All scratch state lives under .bench_build in the working
	// directory (the checkout root) and is removed at exit.
	out := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(out, *name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *name, seed: *seed, seconds: *seconds,
		nproc: runtime.NumCPU(), dir: dir,
		metrics: make(map[string]metric), layers: make(map[string]metric),
	}
	if *traced == 1 {
		b.tr = newTracer()
	}
	// A run that cannot finish in this bound has stalled; it fails
	// rather than outlive the caller's patience.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	b.note("perfbench %s seed=%d seconds=%d trace=%d nproc=%d", b.workload, b.seed, b.seconds, *traced, b.nproc)
	if err := w(ctx, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		var bad *unsimulable
		if !errors.As(err, &bad) {
			return 1
		}
		// The workload cannot run: report its unsimulable jobs as failed
		// operations, with no metrics.
		n := int64(len(bad.failures))
		b.t.attempted.Add(n)
		b.t.fail(n, err)
		b.metrics, b.layers = map[string]metric{}, map[string]metric{}
		b.tr = nil
	}
	if b.tr != nil {
		if err := b.finishTrace(filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	v := verdict{
		Attempted: b.t.attempted.Load(), Failed: b.t.failed.Load(),
		Metrics: b.metrics,
	}
	if b.tr != nil {
		v.Metrics = b.layers
	}
	v.Correct = v.Failed == 0 && v.Attempted > 0 && len(b.mismatch) == 0
	for _, m := range b.mismatch {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", m)
	}
	b.note("failed_ratio %.6f (%d failed of %d attempted operations)", float64(v.Failed)/float64(max(v.Attempted, 1)), v.Failed, v.Attempted)
	for _, set := range []map[string]metric{b.metrics, b.layers} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b.note("  %-40s %16.6f %s", n, set[n].Value, set[n].Unit)
		}
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !v.Correct {
		return 1
	}
	return 0
}
