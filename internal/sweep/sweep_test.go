package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeJob returns a distinct cheap job; i differentiates the key via the
// seed override.
func fakeJob(i int) Job {
	p, _ := trace.ByName("compress")
	return Job{
		Profile: p,
		Config:  sim.DefaultConfig(sim.Mono1Cycle(core.Unlimited, core.Unlimited), 1000),
		Seed:    uint64(i + 1),
	}
}

// realJobs returns a small benchmark × architecture matrix at a tiny
// budget for tests that run the real simulator.
func realJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, bench := range []string{"compress", "swim"} {
		p, ok := trace.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", bench)
		}
		for _, spec := range []sim.RFSpec{
			sim.Mono1Cycle(core.Unlimited, core.Unlimited),
			sim.PaperCache(),
		} {
			jobs = append(jobs, Job{Profile: p, Config: sim.DefaultConfig(spec, 3000)})
		}
	}
	return jobs
}

func TestKeyIgnoresSpecName(t *testing.T) {
	a := fakeJob(0)
	b := fakeJob(0)
	b.Config.RF.Name = "renamed"
	if a.Key() != b.Key() {
		t.Error("cosmetic spec rename changed the job key")
	}
	c := fakeJob(0)
	c.Config.MaxInstructions++
	if a.Key() == c.Key() {
		t.Error("instruction budget not part of the job key")
	}
	d := fakeJob(0)
	d.Seed = 99
	if a.Key() == d.Key() {
		t.Error("seed override not part of the job key")
	}
	e := fakeJob(0)
	e.Config.RF.Cache.UpperSize = 32
	if a.Key() == e.Key() {
		t.Error("architecture config not part of the job key")
	}
}

func TestWorkerPoolBounded(t *testing.T) {
	const limit = 3
	var running, peak atomic.Int64
	r := NewRunner(RunnerConfig{
		Simulate: func(Job) sim.Result {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			return sim.Result{Cycles: 1}
		},
	})
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	r.RunOutcomes(jobs, limit)
	if p := peak.Load(); p > limit {
		t.Errorf("observed %d concurrent jobs, pool bound is %d", p, limit)
	}
	if p := peak.Load(); p == 0 {
		t.Error("no job ever ran")
	}
}

func TestConfiguredParallelismHonored(t *testing.T) {
	var running, peak atomic.Int64
	r := NewRunner(RunnerConfig{
		Parallelism: 1,
		Simulate: func(Job) sim.Result {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return sim.Result{}
		},
	})
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	// Parallelism 0 must defer to the configured bound, not GOMAXPROCS.
	r.RunOutcomes(jobs, 0)
	if p := peak.Load(); p != 1 {
		t.Errorf("observed %d concurrent jobs with RunnerConfig.Parallelism = 1", p)
	}
}

func TestCacheAccounting(t *testing.T) {
	var sims atomic.Int64
	r := NewRunner(RunnerConfig{
		Parallelism: 4,
		Simulate: func(j Job) sim.Result {
			sims.Add(1)
			return sim.Result{Cycles: j.Seed}
		},
	})
	// 3 unique jobs; the batch repeats the first two.
	batch := []Job{fakeJob(0), fakeJob(1), fakeJob(2), fakeJob(0), fakeJob(1)}
	outs := r.RunOutcomes(batch, 4)
	if got := sims.Load(); got != 3 {
		t.Errorf("batch with 3 unique jobs simulated %d times", got)
	}
	if st := r.CacheStats(); st.Misses != 3 || st.Hits != 2 {
		t.Errorf("stats after first batch = %+v, want 3 misses / 2 hits", st)
	}
	// Within-batch duplicates are marked cached and share results.
	for i, dup := range map[int]int{3: 0, 4: 1} {
		if !outs[i].Cached {
			t.Errorf("duplicate job %d not marked cached", i)
		}
		if !reflect.DeepEqual(outs[i].Result, outs[dup].Result) {
			t.Errorf("duplicate job %d result differs from job %d", i, dup)
		}
	}
	if outs[0].Cached || outs[1].Cached || outs[2].Cached {
		t.Error("first occurrences must not be marked cached")
	}
	// A repeat run is served entirely from the cache.
	r.RunOutcomes(batch, 4)
	if got := sims.Load(); got != 3 {
		t.Errorf("repeat batch re-simulated: %d total runs", got)
	}
	if st := r.CacheStats(); st.Misses != 3 || st.Hits != 7 {
		t.Errorf("stats after repeat = %+v, want 3 misses / 7 hits", st)
	}
}

func TestDisableCache(t *testing.T) {
	var sims atomic.Int64
	r := NewRunner(RunnerConfig{
		DisableCache: true,
		Simulate: func(Job) sim.Result {
			sims.Add(1)
			return sim.Result{}
		},
	})
	batch := []Job{fakeJob(0), fakeJob(0), fakeJob(0)}
	outs := r.RunOutcomes(batch, 2)
	if got := sims.Load(); got != 3 {
		t.Errorf("cache disabled but only %d of 3 jobs simulated", got)
	}
	for i, o := range outs {
		if o.Cached {
			t.Errorf("job %d marked cached with caching disabled", i)
		}
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	jobs := realJobs(t)
	seq := NewRunner(RunnerConfig{}).RunOutcomes(jobs, 1)
	par := NewRunner(RunnerConfig{}).RunOutcomes(jobs, 8)
	for i := range jobs {
		if !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Errorf("job %d: parallelism changed the result: IPC %.6f vs %.6f",
				i, seq[i].Result.IPC, par[i].Result.IPC)
		}
		if seq[i].Key != par[i].Key {
			t.Errorf("job %d: key differs across runs", i)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	r := NewRunner(RunnerConfig{
		Simulate: func(Job) sim.Result { return sim.Result{} },
		OnProgress: func(p Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	})
	batch := []Job{fakeJob(0), fakeJob(1), fakeJob(0)}
	r.RunOutcomes(batch, 2)
	if len(events) != len(batch) {
		t.Fatalf("%d progress events for %d jobs", len(events), len(batch))
	}
	cached := 0
	seen := map[int]bool{}
	for i, e := range events {
		if e.Done != i+1 || e.Total != len(batch) {
			t.Errorf("event %d: Done/Total = %d/%d", i, e.Done, e.Total)
		}
		if e.Cached {
			cached++
		}
		seen[e.Index] = true
	}
	if cached != 1 {
		t.Errorf("%d cached progress events, want 1", cached)
	}
	if len(seen) != len(batch) {
		t.Errorf("progress covered %d distinct jobs, want %d", len(seen), len(batch))
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := &Spec{
		Name:         "ports-x-policy",
		Instructions: 9000,
		Parallelism:  2,
		Benchmarks:   []string{"compress", "swim"},
		Seeds:        []uint64{1, 2},
		Architectures: []ArchMatrix{
			{Kind: "1cycle", ReadPorts: []int{2, 4}, WritePorts: []int{2}},
			{Kind: "rfcache", Caching: []string{"nonbypass", "ready"}, Prefetch: []string{"firstpair"}},
		},
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("spec round-trip mismatch:\n%+v\n%+v", spec, back)
	}
	jobs, err := back.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// (2 port points + 2 caching points) × 2 benchmarks × 2 seeds.
	if len(jobs) != 16 {
		t.Errorf("matrix expanded to %d jobs, want 16", len(jobs))
	}
	for _, j := range jobs {
		if j.Config.MaxInstructions != 9000 {
			t.Errorf("job budget %d, want 9000", j.Config.MaxInstructions)
		}
		if j.Config.RF.Name == "" {
			t.Error("expanded spec has no display name")
		}
		if err := j.Config.Validate(); err != nil {
			t.Errorf("expanded config invalid: %v", err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		blob string
	}{
		{"no architectures", `{"benchmarks":["compress"]}`},
		{"unknown benchmark", `{"benchmarks":["nope"],"architectures":[{"kind":"1cycle"}]}`},
		{"unknown kind", `{"architectures":[{"kind":"quantum"}]}`},
		{"missing kind", `{"architectures":[{}]}`},
		{"unknown caching", `{"architectures":[{"kind":"rfcache","caching":["wat"]}]}`},
		{"unknown prefetch", `{"architectures":[{"kind":"rfcache","prefetch":["wat"]}]}`},
		{"unknown field", `{"architectures":[{"kind":"1cycle"}],"bogus":1}`},
		{"malformed", `{`},
	}
	for _, c := range cases {
		if _, err := ParseSpec(strings.NewReader(c.blob)); err == nil {
			t.Errorf("%s: spec accepted", c.name)
		}
	}
	// A minimal valid spec defaults to all benchmarks.
	s, err := ParseSpec(strings.NewReader(`{"architectures":[{"kind":"rfcache"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(trace.All()) {
		t.Errorf("default expansion has %d jobs, want %d", len(jobs), len(trace.All()))
	}
}

func TestJobCountMatchesJobs(t *testing.T) {
	specs := []string{
		`{"architectures":[{"kind":"1cycle"}]}`,
		`{"benchmarks":["compress"],"architectures":[{"kind":"rfcache"}]}`,
		`{"benchmarks":["compress","swim"],"seeds":[1,2,3],"architectures":[
			{"kind":"1cycle","read_ports":[2,4],"write_ports":[2]},
			{"kind":"rfcache","caching":["nonbypass","ready"],"prefetch":["demand","firstpair"],"upper_sizes":[8,16]},
			{"kind":"onelevel","banks":[2,4]},
			{"kind":"replicated","clusters":[2,4],"phys_regs":[96,128]}]}`,
	}
	for _, blob := range specs {
		s, err := ParseSpec(strings.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		count, err := s.JobCount()
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := s.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if count != len(jobs) {
			t.Errorf("%s: JobCount = %d, Jobs expanded to %d", blob, count, len(jobs))
		}
	}
}

func TestJobCountSaturates(t *testing.T) {
	// 8 dimensions of 100k values each would overflow any naive product;
	// JobCount must saturate instead of wrapping (and must not allocate
	// the expansion).
	big := make([]int, 100000)
	for i := range big {
		big[i] = i + 1
	}
	s := &Spec{Architectures: []ArchMatrix{{
		Kind: "rfcache", ReadPorts: big, WritePorts: big, Buses: big,
		UpperSizes: big, PhysRegs: big,
	}}}
	count, err := s.JobCount()
	if err != nil {
		t.Fatal(err)
	}
	if count != MaxJobCount {
		t.Errorf("JobCount = %d, want saturation at %d", count, MaxJobCount)
	}
}

func TestSeedOverride(t *testing.T) {
	j := fakeJob(0)
	j.Seed = 7777
	if got := j.profile().Seed; got != 7777 {
		t.Errorf("seed override not applied: %d", got)
	}
	j.Seed = 0
	if got := j.profile().Seed; got != j.Profile.Seed {
		t.Errorf("zero seed must keep the profile seed, got %d", got)
	}
}

func TestReportEmission(t *testing.T) {
	r := NewRunner(RunnerConfig{
		Simulate: func(j Job) sim.Result {
			return sim.Result{Instructions: 100, Cycles: 50, IPC: 2.0}
		},
	})
	jobs := []Job{fakeJob(0), fakeJob(0)}
	outs := r.RunOutcomes(jobs, 1)
	rep := NewReport("smoke", jobs, outs, r.CacheStats())
	if len(rep.Rows) != 2 || !rep.Rows[1].Cached || rep.Rows[0].Cached {
		t.Fatalf("report rows wrong: %+v", rep.Rows)
	}
	if rep.Cache.Hits != 1 || rep.Cache.Misses != 1 {
		t.Errorf("report cache stats = %+v", rep.Cache)
	}

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(rep.Rows, back.Rows) || back.Cache != rep.Cache {
		t.Error("report JSON round-trip mismatch")
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "benchmark,arch,") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[2], "true") {
		t.Errorf("cached row not flagged in CSV: %s", lines[2])
	}
}
