package sweep

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// Progress reports one finished job to a progress callback.
type Progress struct {
	// Done and Total count jobs of the current batch.
	Done, Total int
	// Index is the job's position in the batch.
	Index int
	// Job is the finished job.
	Job Job
	// Key is the job's content address.
	Key Key
	// Result holds the job's measurements; it is valid by the time the
	// callback runs, whether simulated or served from the cache.
	Result sim.Result
	// Cached marks a result served from the cache (or deduplicated
	// against an identical job earlier in the same batch).
	Cached bool
}

// CacheStats counts cache effectiveness across a Runner's lifetime. A job
// counts as a hit when its result was not simulated for it: it was found
// in the cache, or it duplicated another job of the same batch. Jobs of a
// canceled batch keep the classification they got when the batch was
// scheduled, even if cancellation then skipped their simulation.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// RunnerConfig configures a Runner. The zero value is usable: GOMAXPROCS
// workers, in-memory caching, no progress callback.
type RunnerConfig struct {
	// Parallelism bounds concurrent simulations; 0 uses GOMAXPROCS.
	Parallelism int
	// OnProgress, when non-nil, is called after each job of a batch
	// resolves. Calls are serialized per batch.
	OnProgress func(Progress)
	// Simulate overrides the simulation function (tests); nil runs the
	// real simulator.
	Simulate func(Job) sim.Result
	// SimulateContext, when non-nil, takes precedence over Simulate and
	// receives the batch context. It is the seam through which rfserved
	// threads per-request admission metadata (tenant, priority) into its
	// scheduler; the context carries metadata only — implementations must
	// still return a valid Result even when it is already canceled,
	// because the runner caches whatever they return.
	SimulateContext func(context.Context, Job) sim.Result
	// Cache supplies the result cache: an in-memory MemCache, the
	// disk-backed store in internal/store, or a Tiered combination. Nil
	// uses a fresh MemCache.
	Cache Cache
	// DisableCache turns the result cache off; every job simulates.
	DisableCache bool
}

// Runner executes job batches through a bounded worker pool, memoizing
// results by job content in a pluggable Cache. It is safe for concurrent
// use, and its cache persists across Run calls (and, with a disk-backed
// cache, across processes).
type Runner struct {
	cfg   RunnerConfig
	cache Cache

	mu    sync.Mutex
	stats CacheStats
}

// NewRunner returns a Runner with the given configuration.
func NewRunner(cfg RunnerConfig) *Runner {
	if cfg.Simulate == nil {
		cfg.Simulate = Simulate
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewMemCache()
	}
	return &Runner{cfg: cfg, cache: cache}
}

// Outcome is one job's result plus its cache provenance.
type Outcome struct {
	// Result holds the simulation measurements.
	Result sim.Result
	// Key is the job's content address.
	Key Key
	// Cached marks a result not simulated for this job (cache hit or
	// within-batch duplicate).
	Cached bool
}

// RunOutcomes executes the batch and reports per-job results with cache
// provenance, in job order. parallelism overrides the configured bound
// for this batch; 0 defers to RunnerConfig.Parallelism, then GOMAXPROCS.
// Results are identical at every parallelism level.
func (r *Runner) RunOutcomes(jobs []Job, parallelism int) []Outcome {
	outs, _ := r.RunOutcomesContext(context.Background(), jobs, parallelism, nil)
	return outs
}

// RunOutcomesContext is RunOutcomes with cancellation and a per-batch
// progress callback (nil falls back to RunnerConfig.OnProgress). When ctx
// is canceled, jobs that have not started simulating are skipped: their
// Outcome keeps a zero Result, no progress event fires for them, and the
// returned error is ctx.Err(). Jobs already simulating run to completion,
// so every emitted progress event carries a valid result.
func (r *Runner) RunOutcomesContext(ctx context.Context, jobs []Job, parallelism int, onProgress func(Progress)) ([]Outcome, error) {
	if parallelism <= 0 {
		parallelism = r.cfg.Parallelism
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if onProgress == nil {
		onProgress = r.cfg.OnProgress
	}
	outs := make([]Outcome, len(jobs))

	// Resolve each job against the cache, and group the rest by key so
	// within-batch duplicates simulate once. waiters holds, per unique
	// in-flight key, the later indices that share it; they are hits served
	// when the first index finishes. The map is fully built before any
	// worker starts and each key's list is read only by the worker that
	// owns that key, so it needs no locking.
	var unique []int
	waiters := make(map[Key][]int)
	fromCache := make([]bool, len(jobs))
	done := 0
	var progressMu sync.Mutex
	emit := func(i int, cached bool) {
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		if onProgress != nil {
			onProgress(Progress{
				Done: done, Total: len(jobs), Index: i, Job: jobs[i],
				Key: outs[i].Key, Result: outs[i].Result, Cached: cached,
			})
		}
	}

	var scanned CacheStats
	for i := range jobs {
		k := jobs[i].Key()
		outs[i].Key = k
		if !r.cfg.DisableCache {
			if res, ok := r.cache.Get(k); ok {
				outs[i].Result = res
				outs[i].Cached = true
				fromCache[i] = true
				scanned.Hits++
				continue
			}
			if _, dup := waiters[k]; dup {
				waiters[k] = append(waiters[k], i)
				outs[i].Cached = true
				scanned.Hits++
				continue
			}
			waiters[k] = []int{}
		}
		unique = append(unique, i)
		scanned.Misses++
	}
	r.mu.Lock()
	r.stats.Hits += scanned.Hits
	r.stats.Misses += scanned.Misses
	r.mu.Unlock()

	// Report jobs resolved from the cache before any simulation starts;
	// within-batch duplicates are reported when their unique job finishes.
	for i := range jobs {
		if fromCache[i] {
			emit(i, true)
		}
	}

	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for _, i := range unique {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			var res sim.Result
			if r.cfg.SimulateContext != nil {
				res = r.cfg.SimulateContext(ctx, jobs[i])
			} else {
				res = r.cfg.Simulate(jobs[i])
			}
			outs[i].Result = res
			k := outs[i].Key
			var dups []int
			if !r.cfg.DisableCache {
				r.cache.Put(k, res)
				dups = waiters[k]
				for _, w := range dups {
					outs[w].Result = res
				}
			}
			emit(i, false)
			for _, w := range dups {
				emit(w, true)
			}
		}(i)
	}
	wg.Wait()
	return outs, ctx.Err()
}

// CacheStats returns the lifetime hit/miss counts.
func (r *Runner) CacheStats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
