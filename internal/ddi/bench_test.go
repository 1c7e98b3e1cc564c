package ddi

import (
	"testing"
	"time"
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
