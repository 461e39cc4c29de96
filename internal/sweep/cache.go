package sweep

import (
	"sync"

	"repro/internal/sim"
)

// Cache stores simulation results by job content address. Implementations
// must be safe for concurrent use; the Runner calls them from its worker
// goroutines. A Cache is best-effort: a Get miss after a Put of the same
// key is allowed (an evicting or persistent cache may drop entries), and
// results are deterministic per key, so concurrent Puts of one key always
// carry identical values.
//
// The in-memory MemCache, the disk-backed store in internal/store, and
// the two-level Tiered combination all satisfy it.
type Cache interface {
	// Get returns the cached result for a key, if present.
	Get(Key) (sim.Result, bool)
	// Put records a result under its key.
	Put(Key, sim.Result)
}

// MemCache is the process-local Cache: a mutex-guarded map. It is the
// Runner's default when no Cache is configured.
type MemCache struct {
	mu sync.Mutex
	m  map[Key]sim.Result
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{m: make(map[Key]sim.Result)}
}

// Get returns the cached result for a key, if present.
func (c *MemCache) Get(k Key) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[k]
	return res, ok
}

// Put records a result under its key.
func (c *MemCache) Put(k Key, res sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = res
}

// tiered is a two-level cache: a fast front (typically a MemCache) over a
// larger or persistent back (typically the disk store).
type tiered struct {
	front, back Cache
}

// Tiered combines two caches. Get tries front then back, promoting back
// hits into the front; Put writes through to both. Either level may be
// nil, in which case the other is returned as-is.
func Tiered(front, back Cache) Cache {
	if front == nil {
		return back
	}
	if back == nil {
		return front
	}
	return &tiered{front: front, back: back}
}

func (t *tiered) Get(k Key) (sim.Result, bool) {
	if res, ok := t.front.Get(k); ok {
		return res, true
	}
	res, ok := t.back.Get(k)
	if ok {
		t.front.Put(k, res)
	}
	return res, ok
}

func (t *tiered) Put(k Key, res sim.Result) {
	t.front.Put(k, res)
	t.back.Put(k, res)
}
