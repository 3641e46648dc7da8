package simd

import (
	"container/list"
	"sync"
)

// cache is a goroutine-safe LRU keyed by string with hit accounting,
// shared by the result cache (values are *Result) and the checkpoint
// cache (values are the serialized settle checkpoints of forked
// campaigns). Values are immutable once stored — the engine never
// mutates a *Result after completion and checkpoint bytes are decoded
// per replica — so hits can hand out the shared value without copying.
type cache[V any] struct {
	mu           sync.Mutex
	cap          int
	order        *list.List               // front = most recent
	entries      map[string]*list.Element // key -> element whose Value is *cacheEntry[V]
	hits, misses uint64
}

type cacheEntry[V any] struct {
	key string
	val V
}

func newCache[V any](capacity int) *cache[V] {
	return &cache[V]{cap: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached value, marks it most recently used and counts
// the lookup as a hit or a miss.
func (c *cache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// put stores the value, evicting the least recently used entry when
// the cache is full. A zero or negative capacity disables caching.
func (c *cache[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry[V]).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: val})
}

// stats snapshots the accounting for GET /v1/stats.
func (c *cache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len(), Capacity: c.cap}
}
