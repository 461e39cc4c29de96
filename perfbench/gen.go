package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/rf/api"
)

// familyMatrices is the fixed register file matrix every workload draws
// from: four points of each of the paper's six organizations. The rf-cache
// points have the read and write ports of the repository's registry sweep
// (rf/testdata/registry_spec.json) and two transfer buses; with unlimited
// ports and buses the simulator deadlocks on some inputs (see README.md,
// Findings).
func familyMatrices() []sweep.ArchMatrix {
	return []sweep.ArchMatrix{
		{Kind: "1cycle", ReadPorts: []int{4, 8}, WritePorts: []int{3, 0}},
		{Kind: "2cycle", ReadPorts: []int{4, 8}, WritePorts: []int{3, 0}},
		{Kind: "2cycle1b", ReadPorts: []int{4, 8}, WritePorts: []int{3, 0}},
		{Kind: "rfcache", ReadPorts: []int{4}, WritePorts: []int{3}, Buses: []int{2},
			Caching: []string{"nonbypass", "ready"}, Prefetch: []string{"demand", "firstpair"}},
		{Kind: "onelevel", Banks: []int{2, 4}, ReadPorts: []int{2, 4}},
		{Kind: "replicated", Clusters: []int{2, 4}, ReadPorts: []int{4, 8}},
	}
}

// familyNames lists the six families in matrix order.
func familyNames() []string {
	var names []string
	for _, m := range familyMatrices() {
		names = append(names, m.Kind)
	}
	return names
}

// suites returns the integer and FP SPEC95 proxy names.
func suites() (ints, fps []string) {
	for _, p := range trace.All() {
		if p.FP {
			fps = append(fps, p.Name)
		} else {
			ints = append(ints, p.Name)
		}
	}
	return ints, fps
}

// newRand returns the generator for one workload at one seed; the salt
// keeps workloads' draws independent of each other.
func newRand(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// pick draws n distinct names from xs in a seeded order.
func pick(r *rand.Rand, xs []string, n int) []string {
	perm := r.Perm(len(xs))
	out := make([]string, n)
	for i := range out {
		out[i] = xs[perm[i]]
	}
	return out
}

// traceSeed draws a nonzero trace-seed override (zero would select the
// profile's built-in seed).
func traceSeed(r *rand.Rand) uint64 { return 1 + r.Uint64N(1<<40) }

// sweepInput is one generated sweep: the spec the program receives and
// its expansion, kept by the benchmark to check the delivered rows.
type sweepInput struct {
	spec *sweep.Spec
	jobs []sweep.Job
	// keys holds each job's content address.
	keys []sweep.Key
}

func newSweep(spec *sweep.Spec) (*sweepInput, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	in := &sweepInput{spec: spec, jobs: jobs}
	for _, j := range jobs {
		in.keys = append(in.keys, j.Key())
	}
	return in, nil
}

// Per-job instruction budgets. sweep-cold runs at the budget the repo's
// golden registry spec uses; the service workloads keep jobs small so
// that per-job service cost is a visible share of the time.
const (
	coldInstructions  = 60000
	warmInstructions  = 5000
	fleetInstructions = 3000
)

// Cost pairs group each suite's proxies into pairs of similar
// simulation cost per instruction (ascending, measured on a 2-core Xeon
// VM), so a seeded pick of one proxy per pair varies the benchmarks while
// keeping a workload's cost nearly independent of its seed.
var (
	intPairs = [][2]string{{"ijpeg", "li"}, {"compress", "m88ksim"}, {"perl", "go"}, {"vortex", "gcc"}}
	fpPairs  = [][2]string{{"wave5", "mgrid"}, {"swim", "tomcatv"}, {"hydro2d", "apsi"}, {"su2cor", "applu"}, {"turb3d", "fpppp"}}
)

// pickPairs draws one proxy of every cost pair.
func pickPairs(r *rand.Rand, pairs [][2]string) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p[r.IntN(2)]
	}
	return out
}

// others returns, for a pick of one proxy per cost pair, the other proxy
// of every pair.
func others(pairs [][2]string, picked []string) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p[0]
		if picked[i] == p[0] {
			out[i] = p[1]
		}
	}
	return out
}

// coldVariants is how many seeded variants of the matrix one sweep-cold
// epoch runs, so that its cost averages over several benchmark picks and
// trace seeds rather than riding on one draw. Variants come in
// complementary pairs: the second of a pair takes the proxies the first
// left out, so every epoch simulates each proxy equally often and its
// cost depends on the seed only through the trace seeds.
const coldVariants = 4

// coldSweeps generates sweep-cold's variants of the fixed matrix. Each
// variant has one sweep per family and suite, every family at two
// points, over one seeded proxy of each cost pair of the suite at one
// seeded trace seed per suite, in a seeded submission order.
func coldSweeps(seed uint64) ([][]*sweepInput, error) {
	r := newRand(seed, "sweep-cold")
	variants := make([][]*sweepInput, coldVariants)
	var bench map[string][]string
	for v := range variants {
		if v%2 == 0 {
			bench = map[string][]string{"int": pickPairs(r, intPairs), "fp": pickPairs(r, fpPairs)}
		} else {
			bench = map[string][]string{"int": others(intPairs, bench["int"]), "fp": others(fpPairs, bench["fp"])}
		}
		ts := map[string]uint64{"int": traceSeed(r), "fp": traceSeed(r)}
		var out []*sweepInput
		for _, m := range familyMatrices() {
			for _, suite := range []string{"int", "fp"} {
				in, err := newSweep(&sweep.Spec{
					Name:          fmt.Sprintf("cold-%d-%s-%s", v, m.Kind, suite),
					Instructions:  coldInstructions,
					Benchmarks:    bench[suite],
					Seeds:         []uint64{ts[suite]},
					Architectures: []sweep.ArchMatrix{firstPoints(m, 2)},
				})
				if err != nil {
					return nil, err
				}
				out = append(out, in)
			}
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		variants[v] = out
	}
	return variants, nil
}

// warmPoolSize is how many distinct specs service-warm resubmits.
const warmPoolSize = 8

// warmPool generates service-warm's pool of overlapping specs. Each spec
// takes three families (one of them fixed by its position, so the pool
// spans all six) and four of six seeded benchmarks; every spec shares
// one trace seed, so the specs share jobs.
func warmPool(seed uint64) ([]*sweepInput, error) {
	r := newRand(seed, "service-warm")
	ints, fps := suites()
	ints, fps = pick(r, ints, 3), pick(r, fps, 3)
	ts := traceSeed(r)
	ms := familyMatrices()
	var out []*sweepInput
	for i := 0; i < warmPoolSize; i++ {
		own := i % len(ms)
		archs := []sweep.ArchMatrix{ms[own]}
		for _, j := range r.Perm(len(ms)) {
			if j != own && len(archs) < 3 {
				archs = append(archs, ms[j])
			}
		}
		in, err := newSweep(&sweep.Spec{
			Name:          fmt.Sprintf("warm-%d", i),
			Instructions:  warmInstructions,
			Benchmarks:    append(pick(r, ints, 2), pick(r, fps, 2)...),
			Seeds:         []uint64{ts},
			Architectures: archs,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// queryOps is the rotation of analysis queries service-warm issues.
var queryOps = []string{api.QueryOpSeries, api.QueryOpPareto, api.QueryOpAggregate}

// analysisQuery returns the n-th query of the rotation over one sweep:
// the Figure 6 style IPC series, the area/IPC Pareto frontier, or mean
// IPC per family and suite.
func analysisQuery(n int, sweepID string) *api.Query {
	q := &api.Query{Op: queryOps[n%len(queryOps)], Sweep: sweepID}
	if q.Op == api.QueryOpAggregate {
		q.GroupBy = []string{"family", "suite"}
		q.Metrics = []api.QueryMetric{{Op: "mean", Metric: "ipc"}, {Op: "sum", Metric: "cycles"}}
	}
	return q
}

// fleetPlan holds what a fleet-cold run draws once from its seed: its
// two trace seeds. Every proxy of both suites is in the plan, so the
// run's cost varies with the seed only through the trace seeds and
// the per-sweep picks.
type fleetPlan struct {
	ints, fps []string
	seeds     []uint64
}

func newFleetPlan(r *rand.Rand) *fleetPlan {
	p := &fleetPlan{}
	p.ints, p.fps = suites()
	for len(p.seeds) < 2 {
		if ts := traceSeed(r); len(p.seeds) == 0 || ts != p.seeds[0] {
			p.seeds = append(p.seeds, ts)
		}
	}
	return p
}

// fleetSweep generates the n-th fleet-cold sweep: every family at one
// point over one seeded integer and one seeded FP proxy, at one of the
// plan's trace seeds. Its instruction budget is fleetInstructions+n, so
// no job of one sweep repeats in another and nothing it asks for is
// cached. The plan keeps the set of profile and seed pairs small,
// because the trace generator memoizes one static program per pair for
// the life of the process.
func fleetSweep(r *rand.Rand, p *fleetPlan, n int) (*sweepInput, error) {
	var archs []sweep.ArchMatrix
	for _, m := range familyMatrices() {
		archs = append(archs, firstPoints(m, 1))
	}
	return newSweep(&sweep.Spec{
		Name:          fmt.Sprintf("fleet-%d", n),
		Instructions:  fleetInstructions + uint64(n),
		Benchmarks:    append(pick(r, p.ints, 1), pick(r, p.fps, 1)...),
		Seeds:         []uint64{p.seeds[r.IntN(len(p.seeds))]},
		Architectures: archs,
	})
}

// firstPoints trims a family matrix to its first n points by keeping
// only the first value of every dimension but the first listed one.
func firstPoints(m sweep.ArchMatrix, n int) sweep.ArchMatrix {
	lists := []*[]int{&m.ReadPorts, &m.WritePorts, &m.Banks, &m.Clusters}
	trimmed := false
	for _, l := range lists {
		if len(*l) == 0 {
			continue
		}
		if !trimmed {
			*l = (*l)[:min(n, len(*l))]
			trimmed = true
			continue
		}
		*l = (*l)[:1]
	}
	if m.Kind == "rfcache" {
		m.Caching = m.Caching[:min(n, len(m.Caching))]
		m.Prefetch = m.Prefetch[:1]
	}
	return m
}
