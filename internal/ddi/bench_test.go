package ddi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func BenchmarkCachePutGet(b *testing.B) {
	c, err := NewMemCache(4096, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	r := Record{ID: 1, Source: SourceOBD, Payload: []byte(`{"rpm":2000}`)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ID = uint64(i%4096 + 1)
		c.Put(r, time.Duration(i))
		c.Get(r.ID, time.Duration(i))
	}
}

// BenchmarkCachePutEvict puts IDs that run past capacity into a full
// cache, so every Put evicts the least recently used entry: the shape of
// DDI.Upload's write-through and of a preload far larger than the cache.
func BenchmarkCachePutEvict(b *testing.B) {
	c, err := NewMemCache(cacheCapacity, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	r := Record{Source: SourceOBD, Payload: []byte(`{"rpm":2000}`)}
	for i := 0; i < cacheCapacity; i++ {
		r.ID = uint64(i + 1)
		c.Put(r, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ID = uint64(cacheCapacity + i + 1)
		c.Put(r, time.Duration(i))
	}
}

func BenchmarkStorePut(b *testing.B) {
	s, err := OpenDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := Record{Source: SourceOBD, At: time.Second, Payload: []byte(`{"rpm":2000,"speed":88.2,"coolant":90.5}`)}
	b.SetBytes(int64(len(rec.Payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.At = time.Duration(i) * time.Millisecond
		if _, err := s.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSelectWindow reads a 601-row window of a 10 000-row
// memtable: in-order (the plan aliases the live columns) and with one row
// behind the head (the order index is searched and the window copied).
func BenchmarkStoreSelectWindow(b *testing.B) {
	for _, late := range []bool{false, true} {
		name := "in-order"
		if late {
			name = "late-row"
		}
		b.Run(name, func(b *testing.B) {
			s, err := OpenDiskStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			put := func(at time.Duration) {
				if _, err := s.Put(Record{Source: SourceOBD, At: at, Payload: []byte(`{"v":1}`)}); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 10000; i++ {
				put(time.Duration(i) * time.Second)
			}
			if late {
				put(100 * time.Second)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := s.Select(Query{Source: SourceOBD, From: 1000 * time.Second, To: 1600 * time.Second})
				if len(got) != 601 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}

// BenchmarkStoreQueryShapes times the read path one query shape at a time
// over an in-order corpus of 200 000 records 4 ms apart: five sealed
// segments over three partitions plus 30 000 memtable rows. Sources are
// drawn from five and x, y uniformly from [-1000, 1000], so the source and
// spatial predicates run per row. Shapes and widths follow benchmark/'s
// ddi_query, except that wide_limit spans half the 800 s corpus. Each shape
// cycles through 64 seeded queries whose windows start anywhere in it.
// Last come narrow_all and agg_partial over windows that overlap the
// memtable: first as it is, then, after one Put behind its head, through
// its order index (the late-row variants).
func BenchmarkStoreQueryShapes(b *testing.B) {
	const n, unsealed, spacing = 200_000, 30_000, 4 * time.Millisecond
	s, err := OpenDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sources := []Source{SourceOBD, SourceGPS, SourceTraffic, SourceSocial, SourceWeather}
	rng := sim.NewStream(42, 1)
	for i := 0; i < n; i++ {
		if i == n-unsealed {
			if err := s.Seal(); err != nil {
				b.Fatal(err)
			}
		}
		r := Record{
			Source:  sources[rng.Intn(len(sources))],
			At:      time.Duration(i) * spacing,
			X:       rng.Uniform(-1000, 1000),
			Y:       rng.Uniform(-1000, 1000),
			Payload: fmt.Appendf(nil, `{"v":%d,"s":%d}`, rng.Intn(10000), rng.Intn(100)),
		}
		if _, err := s.Put(r); err != nil {
			b.Fatal(err)
		}
	}
	span, memFrom := time.Duration(n)*spacing, time.Duration(n-unsealed)*spacing
	window := func(width time.Duration) Query {
		from := time.Duration(rng.Float64() * float64(span-width))
		return Query{From: from, To: from + width}
	}
	// memWindow ends inside the memtable's span.
	memWindow := func(width time.Duration) Query {
		to := memFrom + time.Duration(rng.Float64()*float64(span-memFrom))
		return Query{From: to - width, To: to}
	}
	scan := func(q Query) {
		it := s.Scan(q)
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
	}
	aggregate := func(col Column) func(Query) {
		return func(q Query) {
			if _, _, err := s.Aggregate(q, col); err != nil {
				b.Fatal(err)
			}
		}
	}
	type shape struct {
		name string
		q    func() Query
		run  func(Query)
	}
	bench := func(shapes []shape) {
		for _, shape := range shapes {
			qs := make([]Query, 64)
			for i := range qs {
				qs[i] = shape.q()
			}
			for _, q := range qs { // decode every segment before timing
				shape.run(q)
			}
			b.Run(shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					shape.run(qs[i%len(qs)])
				}
			})
		}
	}
	bench([]shape{
		{"narrow_src", func() Query {
			q := window(30 * time.Second)
			q.Source = sources[rng.Intn(len(sources))]
			return q
		}, scan},
		{"narrow_all", func() Query { return window(30 * time.Second) }, scan},
		{"geo_box", func() Query {
			q := window(5 * time.Minute)
			q.X, q.Y, q.Radius = rng.Uniform(-800, 800), rng.Uniform(-800, 800), 150
			return q
		}, scan},
		{"wide_limit", func() Query {
			q := window(span / 2)
			q.Limit = 100
			return q
		}, scan},
		{"agg_covered", func() Query { // one whole partition
			first := time.Duration(rng.Intn(int(span / DefaultPartition)))
			return Query{From: first * DefaultPartition, To: (first+1)*DefaultPartition - time.Nanosecond}
		}, aggregate(ColX)},
		{"agg_partial", func() Query { return window(7 * time.Minute) }, aggregate(ColY)},
		// point_get's record ID rides in Limit.
		{"point_get", func() Query { return Query{Limit: 1 + rng.Intn(n)} }, func(q Query) {
			if _, ok := s.Get(uint64(q.Limit)); !ok {
				b.Fatalf("no record %d", q.Limit)
			}
		}},
		{"select", func() Query { return window(10 * time.Second) }, func(q Query) { s.Select(q) }},
	})
	memShapes := []shape{
		{"narrow_all_mem", func() Query { return memWindow(30 * time.Second) }, scan},
		{"agg_partial_mem", func() Query { return memWindow(7 * time.Minute) }, aggregate(ColY)},
	}
	bench(memShapes)
	if _, err := s.Put(Record{Source: SourceOBD, At: span - time.Minute, Payload: []byte(`{"v":1}`)}); err != nil {
		b.Fatal(err)
	}
	for i := range memShapes {
		memShapes[i].name += "_late"
	}
	bench(memShapes)
}
