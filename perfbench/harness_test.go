package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/sweep"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // exactly 10 beyond
		{99, 90, 0, false},    // 9 beyond
		{20, 50, 10, true},    // median needs 20 samples
		{19, 50, 0, false},    // 9 beyond the median
		{1000, 99, 990, true}, // 10 beyond p99
		{999, 99, 0, false},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, err := tailed("x", seq(99), 90); err == nil {
		t.Error("tailed accepted a p90 with 9 samples beyond it")
	}
	if p, v, ok := highestTail(seq(150)); !ok || p != 90 || v != 135 {
		t.Errorf("highestTail(150 samples) = p%g %v %v; want p90 135 true", p, v, ok)
	}
	if _, _, ok := highestTail(seq(10)); ok {
		t.Error("highestTail reported a tail from 10 samples")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v; want 2.5", m)
	}
}

func TestClosedLoopAccounting(t *testing.T) {
	var tl tally
	mk := func(weight, failed int64, err error) op {
		return op{weight: weight, run: func(context.Context) (int64, error) { return failed, err }}
	}
	ops := []op{
		mk(10, 0, nil),
		mk(10, 3, nil),                       // three rows differ
		mk(10, 0, errors.New("503 refused")), // a refused request fails its whole weight
		mk(10, 25, nil),                      // failures never exceed the weight
		mk(1, 0, nil),
	}
	closedLoop(context.Background(), 2, ops, &tl)
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 41 || f != 23 {
		t.Errorf("attempted, failed = %d, %d; want 41, 23", a, f)
	}

	// Ops a client takes after the context ended are refused: still
	// attempted, all failed.
	var tl2 tally
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	ops = []op{
		{weight: 5, run: func(context.Context) (int64, error) { ran++; cancel(); return 0, nil }},
		mk(5, 0, nil),
		mk(5, 0, nil),
	}
	closedLoop(ctx, 1, ops, &tl2)
	if a, f := tl2.attempted.Load(), tl2.failed.Load(); a != 15 || f != 10 || ran != 1 {
		t.Errorf("attempted, failed, ran = %d, %d, %d; want 15, 10, 1", a, f, ran)
	}
}

// smallSweep is a real two-job sweep with a tiny budget.
func smallSweep(t *testing.T) (*sweepInput, *expectation) {
	t.Helper()
	in, err := newSweep(&sweep.Spec{
		Name: "tiny", Instructions: 400, Benchmarks: []string{"compress"},
		Architectures: []sweep.ArchMatrix{{Kind: "1cycle", ReadPorts: []int{4, 8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := renderReference(context.Background(), []*sweepInput{in})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ref.expect(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, e
}

func TestDigestCatchesFlippedByte(t *testing.T) {
	in, e := smallSweep(t)
	good := [][]byte{e.lines[0][0], e.lines[1][1]} // cached flag may differ
	if f := e.check(good); f != 0 {
		t.Fatalf("exact rows: %d failed", f)
	}
	d0 := digest([]*sweepInput{in}, []*expectation{e})
	for i := range e.lines[0][0] {
		bad := bytes.Clone(e.lines[0][0])
		bad[i] ^= 0x01
		if f := e.check([][]byte{bad, good[1]}); f != 1 {
			t.Fatalf("byte %d flipped: %d failed; want 1", i, f)
		}
		flipped := &expectation{lines: [][2][]byte{{bad, e.lines[0][1]}, e.lines[1]}}
		if digest([]*sweepInput{in}, []*expectation{flipped}) == d0 {
			t.Fatalf("byte %d flipped: digest unchanged", i)
		}
	}
	if f := e.check(good[:1]); f != 1 {
		t.Errorf("missing row: %d failed; want 1", f)
	}
	if f := e.check(append(good, good[0])); f != 1 {
		t.Errorf("surplus row: %d failed; want 1", f)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "client.sweep", Req: "a", Parent: -1, Start: 0, End: 100},
		{Name: "server.submit", Req: "a", Parent: 0, Start: 0, End: 10},
		{Name: "server.stream", Req: "a", Parent: 0, Start: 10, End: 90},
		// Two overlapping store calls under the stream cover 20..50 once.
		{Name: "store.get", Parent: -1, Start: 20, End: 40, key: "k1"},
		{Name: "store.get", Parent: -1, Start: 30, End: 50, key: "k1"},
		// A child running past its parent counts only inside it.
		{Name: "store.put", Parent: -1, Start: 85, End: 120, key: "k1"},
		// No sweep asked for k2: the span stays unattributed.
		{Name: "store.get", Parent: -1, Start: 15, End: 16, key: "k2"},
	}
	attribute(spans, map[string]map[sweep.Key]bool{"a": {"k1": true}})
	for i, want := range []int{-1, 0, 0, 2, 2, 2, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d; want %d", i, spans[i].Parent, want)
		}
	}
	self := selfTimes(spans)
	for i, want := range []float64{10, 10, 80 - 30 - 5, 20, 20, 35, 1} {
		if math.Abs(self[i]-want) > 1e-9 {
			t.Errorf("span %d self = %v; want %v", i, self[i], want)
		}
	}
	var out bytes.Buffer
	per := report(&out, spans, self)
	if per["server"] != 55 || per["store"] != 76 || per["client"] != 10 {
		t.Errorf("self per sweep = %v", per)
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json's per-layer list in step with
// what a traced run reports.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics; perfbench reports %d", len(m.PerLayer), len(perLayer))
	}
	for i, pl := range m.PerLayer {
		if pl.Name != perLayer[i].name || pl.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s; perfbench reports %s %s", i, pl.Name, pl.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(m.EndToEnd) == 0 || m.EndToEnd[0].Name != "setup_s" {
		t.Error("end_to_end must start with setup_s")
	}
}

// TestReferenceSurvivesSimulatorPanic runs a job on which the simulator's
// deadlock guard has been seen to fire (rf-cache with unlimited ports,
// nonbypass caching and first-pair prefetch on tomcatv at this trace
// seed): the reference pass must report it as unsimulable rather than
// crash, or simulate it once the model is fixed.
func TestReferenceSurvivesSimulatorPanic(t *testing.T) {
	in, err := newSweep(&sweep.Spec{
		Name: "deadlock", Instructions: warmInstructions, Benchmarks: []string{"tomcatv"},
		Seeds:         []uint64{107201170354},
		Architectures: []sweep.ArchMatrix{{Kind: "rfcache", Caching: []string{"nonbypass"}, Prefetch: []string{"firstpair"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = renderReference(context.Background(), []*sweepInput{in})
	var bad *unsimulable
	if err != nil && !errors.As(err, &bad) {
		t.Fatalf("reference render: %v", err)
	}
	if bad != nil {
		t.Logf("unsimulable: %v", bad)
	}
}
