package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/warehouse"
	"repro/rf/api"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports its metrics
// as 0.
var perLayer = []struct{ name, unit string }{
	{"trace.gen_ns_per_instr", "ns"},
	{"sim.ns_per_instr.1cycle", "ns"},
	{"sim.ns_per_instr.2cycle", "ns"},
	{"sim.ns_per_instr.2cycle1b", "ns"},
	{"sim.ns_per_instr.rfcache", "ns"},
	{"sim.ns_per_instr.onelevel", "ns"},
	{"sim.ns_per_instr.replicated", "ns"},
	{"sim.allocs_per_job", "count"},
	{"sim.instructions", "count"},
	{"sim.cycles", "count"},
	{"sweep.run_ms", "ms"},
	{"sweep.serial_sim_ms", "ms"},
	{"sweep.parallel_efficiency", "ratio"},
	{"sweep.cache_hits", "count"},
	{"sweep.cache_misses", "count"},
	{"sweep.hit_ratio", "ratio"},
	{"sweep.write_row_ns", "ns"},
	{"sweep.read_rows_ns_per_row", "ns"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.index_writes", "count"},
	{"store.bytes_per_object", "B"},
	{"wal.appends", "count"},
	{"wal.fsyncs", "count"},
	{"wal.appends_per_fsync", "ratio"},
	{"wal.bytes_per_row", "B"},
	{"wal.compactions", "count"},
	{"warehouse.query_us.series", "us"},
	{"warehouse.query_us.pareto", "us"},
	{"warehouse.query_us.aggregate", "us"},
	{"warehouse.rows", "count"},
	{"warehouse.bytes_per_row", "B"},
	{"warehouse.ingest_errors", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.query_http_overhead_ms", "ms"},
	{"dispatch.leases", "count"},
	{"dispatch.results", "count"},
	{"dispatch.requeues", "count"},
	{"dispatch.fallbacks", "count"},
	{"dispatch.worker_sim_ms", "ms"},
	{"dispatch.worker_busy_frac", "ratio"},
	{"client.self_ms_per_sweep", "ms"},
	{"sweep.self_ms_per_sweep", "ms"},
	{"server.self_ms_per_sweep", "ms"},
	{"store.self_ms_per_sweep", "ms"},
	{"dispatch.self_ms_per_sweep", "ms"},
	{"bench.trace_overhead_s", "s"},
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// timedCache wraps the disk store inside the runner's Tiered stack,
// timing every call into it. Untraced runs use the store unwrapped.
type timedCache struct {
	inner    sweep.Cache
	tr       *tracer
	get, put *samples
}

func (c *timedCache) Get(k sweep.Key) (sim.Result, bool) {
	if !c.tr.on() {
		return c.inner.Get(k)
	}
	start := time.Now()
	res, ok := c.inner.Get(k)
	end := time.Now()
	c.get.add(float64(end.Sub(start)) / float64(time.Microsecond))
	c.tr.keyed("store.get", k, start, end)
	return res, ok
}

func (c *timedCache) Put(k sweep.Key, res sim.Result) {
	if !c.tr.on() {
		c.inner.Put(k, res)
		return
	}
	start := time.Now()
	c.inner.Put(k, res)
	end := time.Now()
	c.put.add(float64(end.Sub(start)) / float64(time.Microsecond))
	c.tr.keyed("store.put", k, start, end)
}

// layerState collects what the per-layer metrics need across a run's
// epochs.
type layerState struct {
	storeGet, storePut samples
	storeStats         store.Stats
	storeBytes         int64
	storeObjects       int
	cache              sweep.CacheStats

	submitMS, streamMS, httpQueryMS samples
	// directMS and directUS time the same query documents evaluated on
	// the warehouse without HTTP; directUS is indexed like queryOps.
	directMS samples
	directUS [3]samples

	walAppends, walFsyncs, walCompactions uint64
	walBytesPerRow                        []float64

	whRows         int
	whBytes        int64
	whIngestErrors uint64

	fleet       api.FleetStats
	workerSimNS atomic.Int64

	// Wall samples split by whether they were traced.
	tracedWalls, plainWalls []float64
	tracedTime              time.Duration
}

// wall files one unit of work's wall time by whether it was traced.
func (ls *layerState) wall(traced bool, d time.Duration) {
	if traced {
		ls.tracedWalls = append(ls.tracedWalls, d.Seconds())
		ls.tracedTime += d
	} else {
		ls.plainWalls = append(ls.plainWalls, d.Seconds())
	}
}

// storeCache returns the cache layer the runner sees for st: the store
// itself, or in a traced run the store behind a timing wrapper.
func (b *bench) storeCache(st *store.Store, ls *layerState) sweep.Cache {
	if b.tr == nil {
		return st
	}
	return &timedCache{inner: st, tr: b.tr, get: &ls.storeGet, put: &ls.storePut}
}

// addStore accumulates a store's counters before it is closed.
func (ls *layerState) addStore(st *store.Store) {
	s := st.Stats()
	ls.storeStats.Hits += s.Hits
	ls.storeStats.Misses += s.Misses
	ls.storeStats.Puts += s.Puts
	ls.storeStats.IndexWrites += s.IndexWrites
	ls.storeBytes += st.SizeBytes()
	ls.storeObjects += st.Len()
}

func (ls *layerState) addCache(cs sweep.CacheStats) {
	ls.cache.Hits += cs.Hits
	ls.cache.Misses += cs.Misses
}

// setLayerState records the per-layer metrics accumulated over the run.
func (b *bench) setLayerState(ls *layerState) {
	b.layer("store.get_us_p50", median(ls.storeGet.values()))
	b.layer("store.put_us_p50", median(ls.storePut.values()))
	b.layer("store.hits", float64(ls.storeStats.Hits))
	b.layer("store.misses", float64(ls.storeStats.Misses))
	b.layer("store.puts", float64(ls.storeStats.Puts))
	b.layer("store.index_writes", float64(ls.storeStats.IndexWrites))
	if ls.storeObjects > 0 {
		b.layer("store.bytes_per_object", float64(ls.storeBytes)/float64(ls.storeObjects))
	}
	b.layer("sweep.cache_hits", float64(ls.cache.Hits))
	b.layer("sweep.cache_misses", float64(ls.cache.Misses))
	if n := ls.cache.Hits + ls.cache.Misses; n > 0 {
		b.layer("sweep.hit_ratio", float64(ls.cache.Hits)/float64(n))
	}
	b.layer("wal.appends", float64(ls.walAppends))
	b.layer("wal.fsyncs", float64(ls.walFsyncs))
	if ls.walFsyncs > 0 {
		b.layer("wal.appends_per_fsync", float64(ls.walAppends)/float64(ls.walFsyncs))
	}
	b.layer("wal.bytes_per_row", median(ls.walBytesPerRow))
	b.layer("wal.compactions", float64(ls.walCompactions))
	b.layer("warehouse.rows", float64(ls.whRows))
	if ls.whRows > 0 {
		b.layer("warehouse.bytes_per_row", float64(ls.whBytes)/float64(ls.whRows))
	}
	b.layer("warehouse.ingest_errors", float64(ls.whIngestErrors))
	b.layer("server.submit_ms_p50", median(ls.submitMS.values()))
	b.layer("server.stream_ms_p50", median(ls.streamMS.values()))
	b.layer("dispatch.leases", float64(ls.fleet.Dispatched))
	b.layer("dispatch.results", float64(ls.fleet.Completed))
	b.layer("dispatch.requeues", float64(ls.fleet.Requeued))
	b.layer("dispatch.fallbacks", float64(ls.fleet.Fallbacks))
	simNS := ls.workerSimNS.Load()
	b.layer("dispatch.worker_sim_ms", float64(simNS)/1e6)
	if ls.tracedTime > 0 {
		b.layer("dispatch.worker_busy_frac", float64(simNS)/(float64(ls.tracedTime)*float64(b.nproc)))
	}
	b.layer("bench.trace_overhead_s", median(ls.tracedWalls)-median(ls.plainWalls))
	b.note("wall samples: untraced median %.4f s, traced median %.4f s", median(ls.plainWalls), median(ls.tracedWalls))
}

// measureDirect times the layers a workload reaches only through the
// program by calling them directly over the first inputs (the first
// epoch's, or sweep-cold's first variant): trace generation per profile,
// one default-runner pass and a serial simulation of every distinct job,
// and the NDJSON codec over the expected rows.
func (b *bench) measureDirect(ctx context.Context, ins []*sweepInput, exps map[*sweepInput]*expectation) error {
	jobs := distinctJobs(ins)
	// Trace generation: one stream per distinct profile and seed, as long
	// as the jobs' budget.
	type stream struct {
		p trace.Profile
		n uint64
	}
	seen := make(map[trace.Profile]bool)
	var streams []stream
	for _, j := range jobs {
		p := j.Profile
		if j.Seed != 0 {
			p.Seed = j.Seed
		}
		if !seen[p] {
			seen[p] = true
			streams = append(streams, stream{p, j.Config.MaxInstructions})
		}
	}
	var genNS, genN float64
	for _, s := range streams {
		start := time.Now()
		g := trace.New(s.p)
		for i := uint64(0); i < s.n; i++ {
			g.Next()
		}
		genNS += float64(time.Since(start))
		genN += float64(s.n)
	}
	b.layer("trace.gen_ns_per_instr", genNS/genN)

	// One pass through a default runner, as rfbatch makes it.
	start := time.Now()
	outs, err := sweep.NewRunner(sweep.RunnerConfig{}).RunOutcomesContext(ctx, jobs, 0, nil)
	run := time.Since(start)
	if err != nil {
		return err
	}

	// Serial simulation of the same jobs, per family.
	famNS := make(map[string]float64)
	famInstr := make(map[string]float64)
	var serial time.Duration
	var mallocs, instrs, cycles uint64
	var ms0, ms1 runtime.MemStats
	for i, j := range jobs {
		p := j.Profile
		if j.Seed != 0 {
			p.Seed = j.Seed
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res := sim.New(j.Config, trace.New(p)).Run()
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		if want := outs[i].Result; res.Instructions != want.Instructions || res.Cycles != want.Cycles {
			b.mismatch = append(b.mismatch, fmt.Sprintf("serial simulation of %s differs from the runner's", j.Key()))
		}
		fam := warehouse.MetaOf(j).Family
		famNS[fam] += float64(d)
		famInstr[fam] += float64(res.Instructions)
		serial += d
		instrs += res.Instructions
		cycles += res.Cycles
	}
	for _, fam := range familyNames() {
		if famInstr[fam] > 0 {
			b.layer("sim.ns_per_instr."+fam, famNS[fam]/famInstr[fam])
		}
	}
	b.layer("sim.allocs_per_job", float64(mallocs)/float64(len(jobs)))
	b.layer("sim.instructions", float64(instrs))
	b.layer("sim.cycles", float64(cycles))
	b.layer("sweep.run_ms", ms(run))
	b.layer("sweep.serial_sim_ms", ms(serial))
	b.layer("sweep.parallel_efficiency", float64(serial)/(float64(run)*float64(b.nproc)))

	// NDJSON codec over the expected rows, repeated to at least 50 ms.
	var rows []sweep.Row
	for _, in := range ins {
		rows = append(rows, exps[in].rows...)
	}
	var buf bytes.Buffer
	var writeNS, readNS time.Duration
	var written, read int
	for writeNS+readNS < 50*time.Millisecond {
		buf.Reset()
		start := time.Now()
		for _, r := range rows {
			if err := sweep.WriteRow(&buf, r); err != nil {
				return err
			}
		}
		writeNS += time.Since(start)
		written += len(rows)
		start = time.Now()
		got, err := sweep.ReadRows(bytes.NewReader(buf.Bytes()))
		readNS += time.Since(start)
		if err != nil {
			return err
		}
		read += len(got)
	}
	b.layer("sweep.write_row_ns", float64(writeNS)/float64(written))
	b.layer("sweep.read_rows_ns_per_row", float64(readNS)/float64(read))
	return nil
}

// finishTrace attributes and summarizes the spans, writes them out, and
// fills in the per-layer metrics the workload did not exercise.
func (b *bench) finishTrace(path string) error {
	b.tr.mu.Lock()
	spans := b.tr.spans
	b.tr.mu.Unlock()
	attribute(spans, b.tr.sweepKeys)
	self := selfTimes(spans)
	perSweep := report(os.Stdout, spans, self)
	for layer, v := range perSweep {
		name := layer + ".self_ms_per_sweep"
		for _, m := range perLayer {
			if m.name == name {
				b.layer(name, v)
			}
		}
	}
	if err := dump(path, spans); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	b.note("spans written to %s", path)
	for _, m := range perLayer {
		if _, ok := b.layers[m.name]; !ok {
			b.layer(m.name, 0)
		}
	}
	return nil
}
