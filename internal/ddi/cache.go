package ddi

import (
	"container/list"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// MemCache is the in-memory tier (the paper's Redis role): bounded
// capacity, per-entry survival time in virtual time, LRU eviction. A
// record fetched from disk is promoted here; expired entries fall back to
// disk on next access.
type MemCache struct {
	capacity int
	ttl      time.Duration
	entries  map[uint64]*list.Element
	lru      *list.List // front = most recent

	hits   int
	misses int

	scope obs.Scope
	m     cacheMetrics
}

// cacheMetrics holds the cache's interned counter handles, resolved once
// in instrument. Handles are nil-safe, so an unattached cache bumps
// them for free — Get/Put stay off the registry lock and never re-hash a
// metric name (the interned-handle path every hot emitter uses).
type cacheMetrics struct {
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	evictions   *telemetry.Counter
	expirations *telemetry.Counter
}

// instrument mirrors hit/miss/eviction outcomes into the scope's registry
// under `ddi.cache.*` counters, and emits a structured event into its
// recorder for every capacity eviction, stamped at the insertion that
// forced it.
func (c *MemCache) instrument(sc obs.Scope) {
	c.scope = sc
	reg := sc.Metrics
	c.m = cacheMetrics{
		hits:        reg.CounterHandle("ddi.cache.hits"),
		misses:      reg.CounterHandle("ddi.cache.misses"),
		evictions:   reg.CounterHandle("ddi.cache.evictions"),
		expirations: reg.CounterHandle("ddi.cache.expirations"),
	}
}

type cacheEntry struct {
	rec       Record
	expiresAt time.Duration
}

// NewMemCache builds a cache holding up to capacity records, each
// surviving ttl of virtual time after insertion (paper: "for all the data
// caches into the in-memory database, a survival time is set for it").
func NewMemCache(capacity int, ttl time.Duration) (*MemCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("ddi: cache capacity must be positive, got %d", capacity)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("ddi: cache TTL must be positive, got %v", ttl)
	}
	return &MemCache{
		capacity: capacity,
		ttl:      ttl,
		entries:  make(map[uint64]*list.Element, capacity),
		lru:      list.New(),
	}, nil
}

// Put inserts or refreshes a record at virtual time now.
func (c *MemCache) Put(rec Record, now time.Duration) {
	if el, ok := c.entries[rec.ID]; ok {
		entry, valid := el.Value.(*cacheEntry)
		if valid {
			entry.rec = rec
			entry.expiresAt = now + c.ttl
		}
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		c.evictOldest(now)
	}
	el := c.lru.PushFront(&cacheEntry{rec: rec, expiresAt: now + c.ttl})
	c.entries[rec.ID] = el
}

func (c *MemCache) evictOldest(now time.Duration) {
	back := c.lru.Back()
	if back == nil {
		return
	}
	entry, ok := back.Value.(*cacheEntry)
	c.lru.Remove(back)
	if ok {
		delete(c.entries, entry.rec.ID)
		if c.scope.Events.Enabled() {
			c.scope.Events.Emit(now, "ddi", obs.SevDebug, "cache.evict",
				obs.Int("id", int(entry.rec.ID)), obs.Int("resident", c.lru.Len()))
		}
	}
	c.m.evictions.Inc()
}

// Get returns a live cached record, counting hit/miss statistics.
func (c *MemCache) Get(id uint64, now time.Duration) (Record, bool) {
	el, ok := c.entries[id]
	if !ok {
		c.misses++
		c.m.misses.Inc()
		return Record{}, false
	}
	entry, valid := el.Value.(*cacheEntry)
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

// Len returns the number of cached entries (including expired ones no Get
// has touched yet).
func (c *MemCache) Len() int { return c.lru.Len() }

// Stats returns cumulative hits and misses.
func (c *MemCache) Stats() (hits, misses int) { return c.hits, c.misses }

// HitRate returns hits / (hits + misses), or 0 before any access.
func (c *MemCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
