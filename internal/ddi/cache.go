package ddi

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// MemCache is the in-memory tier (the paper's Redis role): bounded
// capacity, per-entry survival time in virtual time, LRU eviction. A
// record fetched from disk is promoted here; expired entries fall back to
// disk on next access.
//
// It is one intrusive LRU over a slice. Each slot of nodes holds a record,
// its expiry and int32 links to its LRU neighbours; index maps a record ID
// to its slot. A slot freed by expiry goes on a free list that the next
// insert takes first, and an insert at capacity reuses the evicted tail's
// slot, so nodes never grows past capacity. Every operation is O(1), and
// once nodes has grown to capacity Put and Get allocate nothing.
type MemCache struct {
	capacity int
	ttl      time.Duration
	nodes    []cacheNode
	index    map[uint64]int32
	head     int32 // most recently used slot, or noSlot when empty
	tail     int32 // least recently used slot, or noSlot when empty
	free     int32 // first free slot, chained through next, or noSlot

	hits   int
	misses int

	m cacheMetrics
}

// noSlot ends a link chain.
const noSlot int32 = -1

// cacheNode is one slot: a cached record with its expiry and LRU links
// (prev towards head, next towards tail). A free slot holds a zero record
// and chains the free list through next.
type cacheNode struct {
	rec        Record
	expiresAt  time.Duration
	prev, next int32
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

// instrument mirrors hit/miss/eviction/expiration outcomes into the
// scope's registry under `ddi.cache.*` counters.
func (c *MemCache) instrument(sc obs.Scope) {
	reg := sc.Metrics
	c.m = cacheMetrics{
		hits:        reg.CounterHandle("ddi.cache.hits"),
		misses:      reg.CounterHandle("ddi.cache.misses"),
		evictions:   reg.CounterHandle("ddi.cache.evictions"),
		expirations: reg.CounterHandle("ddi.cache.expirations"),
	}
}

// NewMemCache builds a cache holding up to capacity records, each
// surviving ttl of virtual time after insertion (paper: "for all the data
// caches into the in-memory database, a survival time is set for it").
func NewMemCache(capacity int, ttl time.Duration) (*MemCache, error) {
	if capacity <= 0 || capacity > math.MaxInt32 {
		return nil, fmt.Errorf("ddi: cache capacity must be in [1, %d], got %d", math.MaxInt32, capacity)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("ddi: cache TTL must be positive, got %v", ttl)
	}
	return &MemCache{
		capacity: capacity,
		ttl:      ttl,
		index:    make(map[uint64]int32, capacity),
		head:     noSlot,
		tail:     noSlot,
		free:     noSlot,
	}, nil
}

// Put inserts or refreshes a record at virtual time now.
func (c *MemCache) Put(rec Record, now time.Duration) {
	if i, ok := c.index[rec.ID]; ok {
		n := &c.nodes[i]
		n.rec, n.expiresAt = rec, now+c.ttl
		c.moveToFront(i)
		return
	}
	var i int32
	switch {
	case len(c.index) >= c.capacity:
		i = c.tail
		c.unlink(i)
		delete(c.index, c.nodes[i].rec.ID)
		c.m.evictions.Inc()
	case c.free != noSlot:
		i = c.free
		c.free = c.nodes[i].next
	default:
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, cacheNode{})
	}
	n := &c.nodes[i]
	n.rec, n.expiresAt = rec, now+c.ttl
	c.pushFront(i)
	c.index[rec.ID] = i
}

// Get returns a live cached record, counting hit/miss statistics.
func (c *MemCache) Get(id uint64, now time.Duration) (Record, bool) {
	i, ok := c.index[id]
	if !ok {
		c.misses++
		c.m.misses.Inc()
		return Record{}, false
	}
	n := &c.nodes[i]
	if n.expiresAt <= now {
		c.unlink(i)
		delete(c.index, id)
		*n = cacheNode{next: c.free} // drop the payload for the collector
		c.free = i
		c.misses++
		c.m.misses.Inc()
		c.m.expirations.Inc()
		return Record{}, false
	}
	c.moveToFront(i)
	c.hits++
	c.m.hits.Inc()
	return n.rec, true
}

// HitRate returns hits / (hits + misses), or 0 before any access.
func (c *MemCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// unlink takes slot i out of the LRU chain.
func (c *MemCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev == noSlot {
		c.head = n.next
	} else {
		c.nodes[n.prev].next = n.next
	}
	if n.next == noSlot {
		c.tail = n.prev
	} else {
		c.nodes[n.next].prev = n.prev
	}
}

// pushFront links slot i in as the most recently used.
func (c *MemCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = noSlot, c.head
	if c.head == noSlot {
		c.tail = i
	} else {
		c.nodes[c.head].prev = i
	}
	c.head = i
}

// moveToFront marks the linked slot i as the most recently used.
func (c *MemCache) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}
