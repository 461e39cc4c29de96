// Package store persists sweep results on disk, content-addressed by the
// same SHA-256 job key as the in-memory sweep cache (workload profile +
// processor configuration + instruction budget + seed override). It is
// the durability layer under cmd/rfbatch --store and the rfserved sweep
// service: identical configurations are simulated once per store, not
// once per process.
//
// Layout under the store directory:
//
//	objects/<key>.json  one result per entry, written atomically
//
// Entry files are written to a temporary file and renamed into place, so
// a crash mid-write leaves only a stray tmp- file (removed on the next
// Open), never a half-visible entry. There is no index file: each
// object's mtime is its recency stamp, set by every Put and every Get
// hit, and Open rebuilds the LRU order by sorting the objects directory
// on mtime. Recency is therefore as durable as the objects themselves,
// and a crash loses none of it. A truncated or otherwise undecodable
// entry is dropped: it turns into a miss, and is deleted, on first Get.
//
// The store is size-capped: when the object bytes exceed Options.MaxBytes
// the least-recently-used entries are evicted. A Store satisfies
// sweep.Cache, so it plugs directly into sweep.Runner, usually behind a
// sweep.Tiered front of in-memory MemCache.
package store

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total size of entry files; 0 means unlimited.
	// When a Put pushes the store over the cap, least-recently-used
	// entries are evicted (never the entry just written, so a single
	// oversized result is retained until a later Put displaces it).
	MaxBytes int64
}

// Stats counts store activity since Open.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Corrupt counts entries dropped because their file was missing,
	// truncated, or undecodable.
	Corrupt uint64 `json:"corrupt"`
	// IOErrors counts writes that failed; the store degrades to a smaller
	// cache rather than failing the sweep.
	IOErrors uint64 `json:"io_errors"`
	// Deprecated: the store keeps no index file, so IndexWrites is
	// always 0. It remains for callers that still report it.
	IndexWrites uint64 `json:"index_writes"`
}

// entry is one resident result.
type entry struct {
	key  sweep.Key
	size int64
}

// Store is a disk-backed, LRU-evicting, content-addressed result store.
// It is safe for concurrent use.
type Store struct {
	objects string
	opts    Options
	// rename commits a finished temp file; os.Rename outside tests. The
	// crash-consistency tests swap it to cut writers down mid-commit.
	rename func(oldpath, newpath string) error

	// readHook, when non-nil, runs during Get's disk read with s.mu
	// released. Tests use it to prove concurrent hits overlap.
	readHook func(sweep.Key)

	mu      sync.Mutex
	entries map[sweep.Key]*list.Element
	lru     *list.List // front = most recently used
	total   int64
	stats   Stats
	stamp   time.Time // last recency stamp issued (see nextStampLocked)
}

// entryFile is the on-disk schema of one objects/<key>.json file. The
// embedded key lets Get verify the file belongs to its name, so a partial
// or foreign file never serves a wrong result.
type entryFile struct {
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// Open loads (or initializes) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		objects: filepath.Join(dir, "objects"),
		opts:    opts,
		rename:  os.Rename,
		entries: make(map[sweep.Key]*list.Element),
		lru:     list.New(),
	}
	if err := os.MkdirAll(s.objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

// load populates the LRU list from the objects directory, most recent
// mtime first, ties broken by key. Entries are not decoded here: a
// corrupt one becomes a miss, and is deleted, on its first Get.
func (s *Store) load() error {
	names, err := os.ReadDir(s.objects)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type object struct {
		key   sweep.Key
		size  int64
		mtime time.Time
	}
	objs := make([]object, 0, len(names))
	for _, de := range names {
		name := de.Name()
		// A crash between CreateTemp and rename leaves a tmp- file;
		// sweep it now.
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(s.objects, name))
			continue
		}
		key, ok := keyOfFilename(name)
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		objs = append(objs, object{key, info.Size(), info.ModTime()})
		// Later stamps start after the newest one on disk, so a clock
		// that moved backwards cannot rank new activity behind old.
		if info.ModTime().After(s.stamp) {
			s.stamp = info.ModTime()
		}
	}
	sort.Slice(objs, func(i, j int) bool {
		if !objs[i].mtime.Equal(objs[j].mtime) {
			return objs[i].mtime.After(objs[j].mtime)
		}
		return objs[i].key < objs[j].key
	})
	for _, o := range objs {
		s.entries[o.key] = s.lru.PushBack(&entry{key: o.key, size: o.size})
		s.total += o.size
	}
	return nil
}

// keyOfFilename maps an object filename back to its key, rejecting
// anything that is not a lowercase-hex SHA-256 name.
func keyOfFilename(name string) (sweep.Key, bool) {
	base, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return "", false
	}
	return sweep.Key(base), validKey(sweep.Key(base))
}

// ValidKey reports whether k is a well-formed store key — lowercase hex
// SHA-256, the only shape the store turns into filenames and the object
// API accepts in URL paths.
func ValidKey(k sweep.Key) bool { return validKey(k) }

// validKey reports whether k is a lowercase hex SHA-256 — the only keys
// the store will turn into filenames.
func validKey(k sweep.Key) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(k sweep.Key) string {
	return filepath.Join(s.objects, string(k)+".json")
}

// read loads and verifies one entry file.
func (s *Store) read(k sweep.Key) (sim.Result, error) {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		return sim.Result{}, err
	}
	var ef entryFile
	if err := json.Unmarshal(data, &ef); err != nil {
		return sim.Result{}, err
	}
	if ef.Key != string(k) {
		return sim.Result{}, fmt.Errorf("store: entry %s holds key %s", k, ef.Key)
	}
	return ef.Result, nil
}

// drop removes an entry's file and in-memory state, if present.
func (s *Store) drop(k sweep.Key) {
	os.Remove(s.path(k))
	if el, ok := s.entries[k]; ok {
		s.total -= el.Value.(*entry).size
		s.lru.Remove(el)
		delete(s.entries, k)
	}
}

// nextStampLocked returns a recency stamp later than every stamp issued
// before it, and later than every mtime Open found on disk. The
// monotonic clock reading is stripped, so the comparison is on the wall
// time that lands in the file.
func (s *Store) nextStampLocked() time.Time {
	now := time.Now().Round(0)
	if !now.After(s.stamp) {
		now = s.stamp.Add(time.Nanosecond)
	}
	s.stamp = now
	return now
}

// touch writes a recency stamp into k's object file, leaving its atime
// alone. The error is dropped: a failure (the entry was evicted
// meanwhile) costs only the entry's rank after a reopen.
func (s *Store) touch(k sweep.Key, stamp time.Time) {
	_ = os.Chtimes(s.path(k), time.Time{}, stamp)
}

// Get returns the stored result for a key. A corrupt entry counts as a
// miss and is deleted.
//
// The disk read happens with s.mu released: the lock only guards the
// membership check before and the revalidation after, so concurrent
// warm-sweep hits overlap on file I/O instead of serializing. Entry
// files are immutable once renamed into place (Put never rewrites an
// existing key), which makes the unlocked read safe; the only racing
// mutation is removal, handled by re-checking membership afterwards.
// The recency stamp is written after s.mu is released too.
func (s *Store) Get(k sweep.Key) (sim.Result, bool) {
	s.mu.Lock()
	if _, ok := s.entries[k]; !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return sim.Result{}, false
	}
	s.mu.Unlock()

	if s.readHook != nil {
		s.readHook(k)
	}
	res, err := s.read(k)

	s.mu.Lock()
	el, present := s.entries[k]
	if err != nil {
		// Only a still-resident entry is corruption; if a concurrent
		// eviction removed the entry (and its file) mid-read, this is
		// an ordinary miss.
		if present {
			s.drop(k)
			s.stats.Corrupt++
		}
		s.stats.Misses++
		s.mu.Unlock()
		return sim.Result{}, false
	}
	var stamp time.Time
	if present {
		s.lru.MoveToFront(el)
		stamp = s.nextStampLocked()
	}
	// The read succeeded against an immutable entry file, so the result
	// is valid even if the entry was evicted while we read it.
	s.stats.Hits++
	s.mu.Unlock()
	if present {
		s.touch(k, stamp)
	}
	return res, true
}

// Has reports whether a key is resident, without touching LRU order,
// stats, or the disk.
func (s *Store) Has(k sweep.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[k]
	return ok
}

// Put stores a result under its key, atomically (write to a temporary
// file, then rename), evicting least-recently-used entries if the store
// exceeds its size cap. Results are deterministic per key, so an existing
// entry is only stamped as recent, never rewritten. Write failures
// degrade to a cache miss later rather than failing the caller.
func (s *Store) Put(k sweep.Key, res sim.Result) {
	if !validKey(k) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.lru.MoveToFront(el)
		s.touch(k, s.nextStampLocked())
		return
	}
	data, err := json.Marshal(entryFile{Key: string(k), Result: res})
	if err != nil {
		s.stats.IOErrors++
		return
	}
	data = append(data, '\n')
	if err := s.writeAtomic(s.path(k), data, s.nextStampLocked()); err != nil {
		s.stats.IOErrors++
		return
	}
	s.entries[k] = s.lru.PushFront(&entry{key: k, size: int64(len(data))})
	s.total += int64(len(data))
	s.stats.Puts++
	s.evictLocked(k)
}

// writeAtomic writes data to path via a tmp- file in the objects
// directory plus rename, so readers never observe a partial entry. The
// tmp file carries its recency stamp before it is fsynced and renamed:
// without the fsync, a machine crash shortly after the rename can leave
// the final name pointing at zero-length or partial content, which a
// journaled coordinator would then trust as a completed result on
// resume.
func (s *Store) writeAtomic(path string, data []byte, stamp time.Time) error {
	tmp, err := os.CreateTemp(s.objects, "tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = os.Chtimes(tmp.Name(), time.Time{}, stamp)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := s.rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// evictLocked removes least-recently-used entries until the store fits
// its cap, never evicting keep (the entry just written).
func (s *Store) evictLocked(keep sweep.Key) {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.total > s.opts.MaxBytes {
		el := s.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		if e.key == keep {
			return // a single oversized entry stays resident
		}
		s.drop(e.key)
		s.stats.Evictions++
	}
}

// Close reports whether any write failed since Open. Every entry and its
// recency stamp are already on disk, so there is nothing to flush. The
// store must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.IOErrors > 0 {
		return fmt.Errorf("store: %d write errors (see Stats)", s.stats.IOErrors)
	}
	return nil
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// SizeBytes returns the total size of resident entry files.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Stats returns activity counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ShardOf maps a key to one of n shard buckets by its leading 32 bits.
// Every node in a fleet computes the same mapping, so shard ids are a
// compact, stable inventory language: workers advertise the buckets
// they hold and the coordinator routes misses to advertisers.
func ShardOf(k sweep.Key, n int) int {
	if n <= 0 {
		return 0
	}
	pfx := string(k)
	if len(pfx) > 8 {
		pfx = pfx[:8]
	}
	v, err := strconv.ParseUint(pfx, 16, 64)
	if err != nil {
		// Not a hex key (never the case for real job keys): degrade to
		// a stable bucket rather than failing.
		v = uint64(len(k))
	}
	return int(v % uint64(n))
}

// RendezvousScore ranks a candidate owner of a shard for highest-
// random-weight (rendezvous) hashing: among candidates, the highest
// score owns the shard. Ranking by a stable identity (worker name,
// remote URL) keeps ownership consistent across restarts and
// re-registrations, so every node routes a given key the same way.
func RendezvousScore(id string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{'|'})
	h.Write([]byte(strconv.Itoa(shard)))
	v := h.Sum64()
	// FNV-1a diffuses trailing bytes poorly — inputs differing only in
	// the shard suffix keep nearly identical high bits, which would let
	// one identity win every shard. A fmix64-style finalizer restores
	// the avalanche.
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// ShardInventory returns the sorted shard buckets (out of n) that hold
// at least one resident entry.
func (s *Store) ShardInventory(n int) []int {
	if n <= 0 {
		return nil
	}
	s.mu.Lock()
	held := make(map[int]bool)
	for k := range s.entries {
		held[ShardOf(k, n)] = true
	}
	s.mu.Unlock()
	out := make([]int, 0, len(held))
	for sh := range held {
		out = append(out, sh)
	}
	sort.Ints(out)
	return out
}
