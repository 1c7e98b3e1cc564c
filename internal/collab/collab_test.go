package collab

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
)

func testKeyer(t *testing.T) Keyer {
	t.Helper()
	k, err := NewKeyer(100, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewKeyerValidation(t *testing.T) {
	if _, err := NewKeyer(0, time.Second); err == nil {
		t.Fatal("zero segment accepted")
	}
	if _, err := NewKeyer(100, 0); err == nil {
		t.Fatal("zero bucket accepted")
	}
}

func TestKeyerQuantization(t *testing.T) {
	k := testKeyer(t)
	a := k.For("detect", 150, 3*time.Second)
	b := k.For("detect", 199, 3900*time.Millisecond)
	if a != b {
		t.Fatalf("same segment+bucket produced different keys: %v vs %v", a, b)
	}
	c := k.For("detect", 201, 3*time.Second)
	if a == c {
		t.Fatal("different segments share a key")
	}
	d := k.For("detect", 150, 5*time.Second)
	if a == d {
		t.Fatal("different buckets share a key")
	}
	e := k.For("lanes", 150, 3*time.Second)
	if a == e {
		t.Fatal("different kinds share a key")
	}
	neg := k.For("detect", -1, 0)
	if neg.Segment != -1 {
		t.Fatalf("negative position segment = %d, want -1", neg.Segment)
	}
}

func TestCachePutGetStaleness(t *testing.T) {
	cache, err := NewCache(testKeyer(t), 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Kind: "detect", Segment: 1, Bucket: 0}
	cache.Put(Result{Key: key, At: time.Second, Bytes: 100, Value: []byte("x")})
	if _, ok := cache.Get(key, 3*time.Second); !ok {
		t.Fatal("fresh result missed")
	}
	if _, ok := cache.Get(key, 10*time.Second); ok {
		t.Fatal("stale result served")
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
	if _, err := NewCache(testKeyer(t), 0); err == nil {
		t.Fatal("zero staleness accepted")
	}
}

func TestCacheLastWriterWins(t *testing.T) {
	cache, _ := NewCache(testKeyer(t), time.Minute)
	key := Key{Kind: "detect", Segment: 1, Bucket: 0}
	cache.Put(Result{Key: key, At: 2 * time.Second, Value: []byte("new")})
	cache.Put(Result{Key: key, At: time.Second, Value: []byte("old")})
	got, ok := cache.Get(key, 3*time.Second)
	if !ok || string(got.Value) != "new" {
		t.Fatalf("got %q, want newer entry", got.Value)
	}
	if len(cache.entries) != 1 {
		t.Fatalf("Len = %d", len(cache.entries))
	}
}

func newConvoy(t *testing.T, n int, spacing float64) (*Convoy, []*Vehicle) {
	t.Helper()
	road, err := geo.NewRoad(10000)
	if err != nil {
		t.Fatal(err)
	}
	convoy, err := NewConvoy(300)
	if err != nil {
		t.Fatal(err)
	}
	keyer := testKeyer(t)
	var vehicles []*Vehicle
	for i := 0; i < n; i++ {
		cache, err := NewCache(keyer, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		v := &Vehicle{
			Name:     fmt.Sprintf("cav-%d", i),
			Mobility: geo.Mobility{Road: road, SpeedMS: 15, StartX: float64(i) * spacing},
			Cache:    cache,
			Pseudonym: func(i int) func(time.Duration) string {
				return func(time.Duration) string { return fmt.Sprintf("pseudo-%d", i) }
			}(i),
		}
		if err := convoy.Add(v); err != nil {
			t.Fatal(err)
		}
		vehicles = append(vehicles, v)
	}
	return convoy, vehicles
}

func TestConvoyValidation(t *testing.T) {
	if _, err := NewConvoy(0); err == nil {
		t.Fatal("zero range accepted")
	}
	convoy, vehicles := newConvoy(t, 1, 10)
	if err := convoy.Add(nil); err == nil {
		t.Fatal("nil vehicle accepted")
	}
	if err := convoy.Add(vehicles[0]); err == nil {
		t.Fatal("duplicate vehicle accepted")
	}
}

func TestObtainComputesOnceSharesToConvoy(t *testing.T) {
	convoy, vehicles := newConvoy(t, 4, 20) // 20 m spacing: all in range
	keyer := vehicles[0].Cache.keyer
	now := time.Second
	key := keyer.For("object-detect", vehicles[0].Mobility.PositionAt(now).X, now)
	computes := 0
	compute := func() (Result, time.Duration, error) {
		computes++
		return Result{At: now, Bytes: 2000, Value: []byte("3 cars 1 ped")}, 50 * time.Millisecond, nil
	}
	// First vehicle computes.
	r, cost, err := convoy.Obtain(vehicles[0], key, now, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 || cost != 50*time.Millisecond {
		t.Fatalf("first obtain: computes=%d cost=%v", computes, cost)
	}
	if r.Producer != "pseudo-0" {
		t.Fatalf("producer = %q, want pseudonym", r.Producer)
	}
	// The rest pull the result over DSRC instead of recomputing: a small
	// transfer cost, no compute.
	for _, v := range vehicles[1:] {
		_, cost, err := convoy.Obtain(v, key, now+100*time.Millisecond, compute)
		if err != nil {
			t.Fatal(err)
		}
		if cost <= 0 || cost >= 50*time.Millisecond {
			t.Fatalf("%s borrow cost = %v, want small DSRC transfer", v.Name, cost)
		}
		if v.Borrowed() != 1 {
			t.Fatalf("%s borrow not counted", v.Name)
		}
	}
	if computes != 1 {
		t.Fatalf("convoy computed %d times, want 1", computes)
	}
	// A second access by a borrower is now a free local hit.
	_, cost2, err := convoy.Obtain(vehicles[1], key, now+200*time.Millisecond, compute)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != 0 {
		t.Fatalf("repeat access cost %v, want free local hit", cost2)
	}
}

func TestObtainBorrowsOverDSRCWhenNotPushed(t *testing.T) {
	convoy, vehicles := newConvoy(t, 2, 20)
	keyer := vehicles[0].Cache.keyer
	now := time.Second
	key := keyer.For("object-detect", 10, now)
	// Seed only vehicle 0's cache directly (no push).
	vehicles[0].Cache.Put(Result{Key: key, At: now, Bytes: 5000, Value: []byte("x")})
	computes := 0
	_, cost, err := convoy.Obtain(vehicles[1], key, now, func() (Result, time.Duration, error) {
		computes++
		return Result{}, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computes != 0 {
		t.Fatal("borrowed result recomputed")
	}
	if cost <= 0 {
		t.Fatal("DSRC borrow was free")
	}
	if vehicles[1].Borrowed() != 1 {
		t.Fatal("borrow not counted")
	}
}

func TestOutOfRangeVehiclesDoNotShare(t *testing.T) {
	convoy, vehicles := newConvoy(t, 2, 5000) // 5 km apart: out of DSRC range
	keyer := vehicles[0].Cache.keyer
	now := time.Second
	key := keyer.For("object-detect", 10, now)
	vehicles[0].Cache.Put(Result{Key: key, At: now, Bytes: 100, Value: []byte("x")})
	computes := 0
	_, _, err := convoy.Obtain(vehicles[1], key, now, func() (Result, time.Duration, error) {
		computes++
		return Result{At: now, Bytes: 100}, time.Millisecond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatal("out-of-range vehicle borrowed a result")
	}
}

func TestObtainStaleResultRecomputed(t *testing.T) {
	convoy, vehicles := newConvoy(t, 2, 20)
	keyer := vehicles[0].Cache.keyer
	key := keyer.For("object-detect", 10, time.Second)
	vehicles[0].Cache.Put(Result{Key: key, At: time.Second, Bytes: 100})
	computes := 0
	// 30 s later the entry exceeds the 10 s staleness bound everywhere.
	_, _, err := convoy.Obtain(vehicles[1], key, 31*time.Second, func() (Result, time.Duration, error) {
		computes++
		return Result{At: 31 * time.Second, Bytes: 100}, time.Millisecond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatal("stale result served instead of recomputing")
	}
}

func TestObtainValidation(t *testing.T) {
	convoy, vehicles := newConvoy(t, 1, 10)
	if _, _, err := convoy.Obtain(nil, Key{}, 0, func() (Result, time.Duration, error) { return Result{}, 0, nil }); err == nil {
		t.Fatal("nil vehicle accepted")
	}
	if _, _, err := convoy.Obtain(vehicles[0], Key{}, 0, nil); err == nil {
		t.Fatal("nil compute accepted")
	}
	wantErr := fmt.Errorf("sensor fault")
	_, _, err := convoy.Obtain(vehicles[0], Key{Kind: "x"}, 0, func() (Result, time.Duration, error) {
		return Result{}, 0, wantErr
	})
	if err == nil {
		t.Fatal("compute error swallowed")
	}
}
