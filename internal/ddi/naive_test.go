package ddi

import (
	"container/list"
	"time"

	"repro/internal/obs"
)

// naiveCache is the reference the slice-backed MemCache is held to: the
// container/list LRU it replaced, unchanged but for the names. Each entry
// is a boxed *naiveCacheEntry in a list.Element.
type naiveCache struct {
	capacity int
	ttl      time.Duration
	entries  map[uint64]*list.Element
	lru      *list.List // front = most recent

	hits   int
	misses int

	m cacheMetrics
}

func (c *naiveCache) instrument(sc obs.Scope) {
	reg := sc.Metrics
	c.m = cacheMetrics{
		hits:        reg.CounterHandle("ddi.cache.hits"),
		misses:      reg.CounterHandle("ddi.cache.misses"),
		evictions:   reg.CounterHandle("ddi.cache.evictions"),
		expirations: reg.CounterHandle("ddi.cache.expirations"),
	}
}

type naiveCacheEntry struct {
	rec       Record
	expiresAt time.Duration
}

func newNaiveCache(capacity int, ttl time.Duration) *naiveCache {
	return &naiveCache{
		capacity: capacity,
		ttl:      ttl,
		entries:  make(map[uint64]*list.Element, capacity),
		lru:      list.New(),
	}
}

func (c *naiveCache) Put(rec Record, now time.Duration) {
	if el, ok := c.entries[rec.ID]; ok {
		entry, valid := el.Value.(*naiveCacheEntry)
		if valid {
			entry.rec = rec
			entry.expiresAt = now + c.ttl
		}
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		c.evictOldest()
	}
	el := c.lru.PushFront(&naiveCacheEntry{rec: rec, expiresAt: now + c.ttl})
	c.entries[rec.ID] = el
}

func (c *naiveCache) evictOldest() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	entry, ok := back.Value.(*naiveCacheEntry)
	c.lru.Remove(back)
	if ok {
		delete(c.entries, entry.rec.ID)
	}
	c.m.evictions.Inc()
}

func (c *naiveCache) Get(id uint64, now time.Duration) (Record, bool) {
	el, ok := c.entries[id]
	if !ok {
		c.misses++
		c.m.misses.Inc()
		return Record{}, false
	}
	entry, valid := el.Value.(*naiveCacheEntry)
	if !valid || entry.expiresAt <= now {
		c.lru.Remove(el)
		delete(c.entries, id)
		c.misses++
		c.m.misses.Inc()
		c.m.expirations.Inc()
		return Record{}, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	c.m.hits.Inc()
	return entry.rec, true
}

func (c *naiveCache) Len() int { return c.lru.Len() }

func (c *naiveCache) Stats() (hits, misses int) { return c.hits, c.misses }

func (c *naiveCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
