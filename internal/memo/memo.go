// Package memo is the one cache policy the repository's memos share: the
// planner's least-power plans (utility.Plans), the cluster's finished
// sweep runs and delta-matrix cells, and an experiment suite's policy
// runs. Each of those values is a deterministic function of its key, so a
// Cache builds every key once, shares the result with every caller, and
// when full forgets everything at once — the workload is a small set of
// keys hit many times, not a scan.
package memo

import (
	"sync"
	"sync/atomic"
)

// Cache is a bounded build-once map from K to V, safe for concurrent use.
// Values are shared, not copied: a caller that hands out mutable values
// copies them itself. The zero value is an empty cache with no bound.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	limit   int
	entries map[K]*entry[V]
	hits    uint64
	misses  uint64
}

type entry[V any] struct {
	built sync.WaitGroup // released when the build returns
	done  atomic.Bool    // set once v and err hold the build's result
	v     V
	err   error
}

// New returns an empty cache that clears itself wholesale when an insert
// finds limit entries already held; a limit <= 0 never clears.
func New[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: limit}
}

// Get returns k's value. The first request for k counts a miss and calls
// build; every later one counts a hit and, while that build runs, waits
// for it. A build's error is kept with its key like a value: builds are
// deterministic, so a rebuild would fail the same way. hit is false
// exactly for the call whose build made the value.
func (c *Cache[K, V]) Get(k K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.hits++
		c.mu.Unlock()
		e.built.Wait()
		return e.v, true, e.err
	}
	if c.entries == nil || (c.limit > 0 && len(c.entries) >= c.limit) {
		c.entries = make(map[K]*entry[V])
	}
	e := &entry[V]{}
	e.built.Add(1)
	c.entries[k] = e
	c.misses++
	c.mu.Unlock()
	defer e.built.Done()
	e.v, e.err = build()
	e.done.Store(true)
	return e.v, false, e.err
}

// Lookup returns k's value when a build of k has finished without error,
// counting a hit. Otherwise — k absent, its build in flight or failed —
// it reports false and counts nothing, so a caller can resolve its hits
// in order and hand only the misses to Get.
func (c *Cache[K, V]) Lookup(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok && e.done.Load() && e.err == nil {
		c.hits++
		return e.v, true
	}
	var zero V
	return zero, false
}

// Reset empties the cache and zeroes its counters. A build in flight
// still serves the callers waiting on it, but its value is not kept.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.entries = nil
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
}

// Stats reports the entry count and the hits and misses since the last
// Reset.
func (c *Cache[K, V]) Stats() (entries int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.hits, c.misses
}
