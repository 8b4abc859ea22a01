package engine

import (
	"container/list"
	"sync"
)

// DefaultCacheSize bounds the obligation cache when Options.CacheSize is 0.
const DefaultCacheSize = 4096

// ObligationCache is a bounded, concurrency-safe LRU cache of definite
// validity outcomes, keyed by the Verifier's obligation key: a compact
// interner-tag:term-ID pair, O(1) to derive and allocation-free up to the
// small key string (see verify.ObligationCache for the key and the
// soundness contract it relies on). One cache is shared by every worker of
// a batch; the single mutex is uncontended in practice because each lookup
// guards seconds-to-milliseconds of solver work.
type ObligationCache struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used
	m      map[string]*list.Element
	hits   int64
	misses int64
}

type cacheEntry struct {
	key   string
	valid bool
}

// NewObligationCache returns an LRU cache bounded to max entries
// (DefaultCacheSize when max <= 0).
func NewObligationCache(max int) *ObligationCache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &ObligationCache{
		max: max,
		ll:  list.New(),
		m:   make(map[string]*list.Element),
	}
}

// Lookup implements verify.ObligationCache, refreshing recency on a hit.
func (c *ObligationCache) Lookup(key string) (valid, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return false, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).valid, true
}

// Store implements verify.ObligationCache, evicting the least recently
// used entry when the bound is exceeded.
func (c *ObligationCache) Store(key string, valid bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		// Definite outcomes are deterministic, so a re-store writes the
		// same value; refresh recency and keep it.
		el.Value.(*cacheEntry).valid = valid
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, valid: valid})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the current entry count.
func (c *ObligationCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns lifetime hit/miss counts.
func (c *ObligationCache) Counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
