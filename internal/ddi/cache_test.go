package ddi

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestNewMemCacheValidation(t *testing.T) {
	if _, err := NewMemCache(0, time.Second); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewMemCache(10, 0); err == nil {
		t.Fatal("zero TTL accepted")
	}
}

func cached(id uint64) Record {
	return Record{ID: id, Source: SourceOBD, Payload: []byte("x")}
}

func TestCachePutGet(t *testing.T) {
	c, _ := NewMemCache(10, time.Minute)
	c.Put(cached(1), 0)
	got, ok := c.Get(1, 30*time.Second)
	if !ok || got.ID != 1 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := c.Get(2, 0); ok {
		t.Fatal("found missing entry")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("stats = %d/%d", c.hits, c.misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c, _ := NewMemCache(10, time.Minute)
	c.Put(cached(1), 0)
	if _, ok := c.Get(1, 59*time.Second); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := c.Get(1, 61*time.Second); ok {
		t.Fatal("entry survived past TTL")
	}
	// Re-putting refreshes the TTL.
	c.Put(cached(1), 2*time.Minute)
	if _, ok := c.Get(1, 2*time.Minute+59*time.Second); !ok {
		t.Fatal("refreshed entry expired early")
	}
}

func TestCacheRefreshOnReput(t *testing.T) {
	c, _ := NewMemCache(10, time.Minute)
	c.Put(cached(1), 0)
	c.Put(cached(1), 30*time.Second) // refresh
	if _, ok := c.Get(1, 80*time.Second); !ok {
		t.Fatal("re-put did not refresh TTL")
	}
	if n := len(c.index); n != 1 {
		t.Fatalf("%d entries after re-put", n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := NewMemCache(3, time.Hour)
	c.Put(cached(1), 0)
	c.Put(cached(2), 0)
	c.Put(cached(3), 0)
	c.Get(1, 0) // 1 is now most recent; 2 is oldest
	c.Put(cached(4), 0)
	if _, ok := c.Get(2, 0); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, id := range []uint64{1, 3, 4} {
		if _, ok := c.Get(id, 0); !ok {
			t.Fatalf("entry %d wrongly evicted", id)
		}
	}
}

func TestCacheHitRateEmptyIsZero(t *testing.T) {
	c, _ := NewMemCache(10, time.Minute)
	if c.HitRate() != 0 {
		t.Fatal("hit rate of untouched cache != 0")
	}
}

// cacheCover records which cases a cache schedule reached.
type cacheCover struct {
	evictPut       bool // Put of a new key at capacity
	refreshLive    bool // Put of a key whose entry is live
	refreshExpired bool // Put of a key whose entry has expired
	hit            bool // Get of a live entry
	miss           bool // Get of an absent key
	exactExpiry    bool // Get at exactly an entry's expiresAt
	slotReuse      bool // Put of a new key into a slot freed by expiry
}

// lruOrder lists the cache's entries from most to least recently used,
// and fails if the back links, the free list or the slot count disagree
// with that walk, or if a free slot still holds a payload.
func lruOrder(t *testing.T, c *MemCache) []naiveCacheEntry {
	t.Helper()
	var order []naiveCacheEntry
	prev := noSlot
	for i := c.head; i != noSlot; i = c.nodes[i].next {
		if c.nodes[i].prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, c.nodes[i].prev, prev)
		}
		order = append(order, naiveCacheEntry{c.nodes[i].rec, c.nodes[i].expiresAt})
		prev = i
	}
	if c.tail != prev {
		t.Fatalf("tail = %d, want %d", c.tail, prev)
	}
	free := 0
	for i := c.free; i != noSlot; i = c.nodes[i].next {
		if c.nodes[i].rec.Payload != nil {
			t.Fatalf("free slot %d still holds record %d's payload", i, c.nodes[i].rec.ID)
		}
		free++
	}
	if len(order) != len(c.index) || len(order)+free != len(c.nodes) || len(c.nodes) > c.capacity {
		t.Fatalf("%d linked + %d free slots of %d (capacity %d), index holds %d",
			len(order), free, len(c.nodes), c.capacity, len(c.index))
	}
	return order
}

// naiveOrder lists the reference's entries from most to least recently
// used.
func naiveOrder(c *naiveCache) []naiveCacheEntry {
	var order []naiveCacheEntry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		order = append(order, *el.Value.(*naiveCacheEntry))
	}
	return order
}

// runCacheSchedule drives a MemCache of the given capacity and the
// container/list reference through prog, one op per byte, and fails at
// the first step where a returned record, the entry count, the hit and
// miss tallies, a ddi.cache.* counter or the LRU order (each entry's
// record and expiry) differ. The low three bits of a byte pick the op; the
// rest pick a key, a listed entry or a clock step. Virtual time only moves
// forward.
func runCacheSchedule(t *testing.T, capacity int, prog []byte) cacheCover {
	t.Helper()
	const ttl = 8
	c, err := NewMemCache(capacity, ttl)
	if err != nil {
		t.Fatal(err)
	}
	ref := newNaiveCache(capacity, ttl)
	gotReg, wantReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	c.instrument(obs.Scope{Metrics: gotReg})
	ref.instrument(obs.Scope{Metrics: wantReg})

	var cov cacheCover
	now, version := time.Duration(0), 0
	put := func(id uint64) {
		version++
		rec := Record{ID: id, Source: SourceOBD, At: now, X: float64(version), Payload: []byte{byte(version), byte(version >> 8)}}
		if el, ok := ref.entries[id]; ok {
			if el.Value.(*naiveCacheEntry).expiresAt <= now {
				cov.refreshExpired = true
			} else {
				cov.refreshLive = true
			}
		} else {
			cov.evictPut = cov.evictPut || ref.Len() == capacity
			cov.slotReuse = cov.slotReuse || c.free != noSlot
		}
		c.Put(rec, now)
		ref.Put(rec, now)
	}
	get := func(id uint64) {
		if el, ok := ref.entries[id]; !ok {
			cov.miss = true
		} else if exp := el.Value.(*naiveCacheEntry).expiresAt; exp > now {
			cov.hit = true
		} else {
			cov.exactExpiry = cov.exactExpiry || exp == now
		}
		got, gotOK := c.Get(id, now)
		want, wantOK := ref.Get(id, now)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%d) at %d = %+v, %v; reference %+v, %v", id, now, got, gotOK, want, wantOK)
		}
	}
	// listed returns the key of the reference's n-th entry in LRU order,
	// or a key never put when it is empty.
	listed := func(n int) uint64 {
		order := naiveOrder(ref)
		if len(order) == 0 {
			return 0
		}
		return order[n%len(order)].rec.ID
	}
	keys := 2*capacity + 2
	for step, b := range prog {
		arg := int(b >> 3)
		switch b % 8 {
		case 0, 1:
			put(uint64(arg%keys + 1))
		case 2, 3:
			get(uint64(arg%keys + 1))
		case 4:
			now += time.Duration(arg % ttl)
		case 5: // jump to a listed entry's expiry, if still ahead, and read it
			if id := listed(arg); id != 0 {
				if exp := ref.entries[id].Value.(*naiveCacheEntry).expiresAt; exp > now {
					now = exp
				}
				get(id)
			}
		case 6:
			if id := listed(arg); id != 0 {
				put(id)
			}
		default:
			get(listed(arg))
		}
		hits, misses := ref.Stats()
		if c.hits != hits || c.misses != misses || len(c.index) != ref.Len() || c.HitRate() != ref.HitRate() {
			t.Fatalf("step %d: %d entries, %d/%d hits/misses; reference %d, %d/%d",
				step, len(c.index), c.hits, c.misses, ref.Len(), hits, misses)
		}
		for _, name := range []string{"ddi.cache.hits", "ddi.cache.misses", "ddi.cache.evictions", "ddi.cache.expirations"} {
			if g, w := gotReg.Counter(name), wantReg.Counter(name); g != w {
				t.Fatalf("step %d: %s = %v, reference %v", step, name, g, w)
			}
		}
		if got, want := lruOrder(t, c), naiveOrder(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: LRU order\n got %+v\nwant %+v", step, got, want)
		}
	}
	return cov
}

// TestMemCacheMatchesNaiveReference: at every capacity from 1 to 8, seeded
// schedules of puts, gets and clock steps — evicting puts, refreshes of
// live and of expired keys, hits, misses, gets at exactly expiresAt and
// slot reuse after expiry — leave the slice-backed cache and the
// container/list reference with the same answers, tallies, counters and
// LRU order after every step.
func TestMemCacheMatchesNaiveReference(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		var all cacheCover
		for seed := int64(1); seed <= 4; seed++ {
			rng := sim.NewStream(seed, uint64(capacity))
			prog := make([]byte, 400)
			for i := range prog {
				prog[i] = byte(rng.Intn(256))
			}
			c := runCacheSchedule(t, capacity, prog)
			all.evictPut = all.evictPut || c.evictPut
			all.refreshLive = all.refreshLive || c.refreshLive
			all.refreshExpired = all.refreshExpired || c.refreshExpired
			all.hit = all.hit || c.hit
			all.miss = all.miss || c.miss
			all.exactExpiry = all.exactExpiry || c.exactExpiry
			all.slotReuse = all.slotReuse || c.slotReuse
		}
		if all != (cacheCover{true, true, true, true, true, true, true}) {
			t.Fatalf("capacity %d: schedules missed a case: %+v", capacity, all)
		}
	}
}

// FuzzMemCacheMatchesReference holds MemCache to the container/list
// reference over arbitrary schedules: the first byte picks a capacity from
// 1 to 8, the rest are ops (see runCacheSchedule).
func FuzzMemCacheMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 16, 24, 2, 10, 63, 13, 5, 6, 7})
	f.Add([]byte{3, 0, 8, 16, 24, 32, 40, 6, 14, 4, 60, 5, 0, 8, 7, 15, 2, 10})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runCacheSchedule(t, int(prog[0])%8+1, prog[1:])
	})
}

// TestMemCacheZeroAllocs: once the cache has filled, an evicting Put, a
// refreshing Put, a Get that hits and a Get that expires allocate nothing,
// with the ddi.cache.* counters attached.
func TestMemCacheZeroAllocs(t *testing.T) {
	const runs = 1000
	c, err := NewMemCache(cacheCapacity, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.instrument(obs.Scope{Metrics: reg})
	rec := Record{Source: SourceOBD, Payload: []byte(`{"rpm":2000}`)}
	next := uint64(0)
	fill := func(now time.Duration) {
		for range 4 * cacheCapacity {
			next++
			rec.ID = next
			c.Put(rec, now)
		}
	}
	fill(0)
	for _, tc := range []struct {
		name, counter string
		op            func()
	}{
		{"evicting Put", "ddi.cache.evictions", func() {
			next++
			rec.ID = next
			c.Put(rec, 0)
		}},
		{"refreshing Put", "", func() {
			rec.ID = next
			c.Put(rec, 0)
		}},
		{"Get hit", "ddi.cache.hits", func() { c.Get(next, 0) }},
		{"Get expiry", "ddi.cache.expirations", func() {
			c.Get(next, time.Minute)
			next--
		}},
	} {
		before := reg.Counter(tc.counter)
		if n := testing.AllocsPerRun(runs, tc.op); n != 0 {
			t.Errorf("%s allocates %.1f per call", tc.name, n)
		}
		if tc.counter != "" && reg.Counter(tc.counter)-before != runs+1 {
			t.Errorf("%s: %s moved by %v, want %d", tc.name, tc.counter, reg.Counter(tc.counter)-before, runs+1)
		}
	}
}
