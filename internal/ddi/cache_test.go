package ddi

import (
	"testing"
	"time"
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
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
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
	if c.Len() != 1 {
		t.Fatalf("Len = %d after re-put", c.Len())
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
