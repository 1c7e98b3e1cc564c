package ddi

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// pruningFixture seals one segment per minute over an hour of records.
func pruningFixture(t *testing.T) *DiskStore {
	t.Helper()
	s := openStore(t)
	s.SetSealPolicy(0, time.Minute)
	for i := 0; i < 3600; i++ {
		r := rec(SourceOBD, time.Duration(i)*time.Second, float64(i%100))
		if i%2 == 0 {
			r.Source = SourceGPS
		}
		if _, err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestZoneMapPruning: a narrow window must read only its partition's
// segment and skip the other 59 without touching disk.
func TestZoneMapPruning(t *testing.T) {
	s := pruningFixture(t)
	if got := len(s.Segments()); got != 60 {
		t.Fatalf("sealed %d segments, want 60", got)
	}
	st, err := s.Explain(Query{From: 30 * time.Minute, To: 30*time.Minute + 59*time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 60 || st.Candidates != 1 || st.Pruned != 59 {
		t.Fatalf("plan stats = %+v", st)
	}
	if ratio := st.SkipRatio(); ratio < 0.9 {
		t.Fatalf("skip ratio %.3f, want >= 0.9", ratio)
	}
	// Source pruning: a source no segment holds prunes everything.
	st, err = s.Explain(Query{Source: SourceWeather})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != 0 || st.Pruned != 60 {
		t.Fatalf("absent-source stats = %+v", st)
	}
	// Spatial pruning: X spans [0,99], so a far circle prunes everything.
	st, err = s.Explain(Query{X: 10_000, Y: 10_000, Radius: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != 0 {
		t.Fatalf("far-circle stats = %+v", st)
	}
}

// TestAggregateZoneFastPath: a window covering whole segments aggregates
// from zone maps; the answer must match the per-row scan exactly.
func TestAggregateZoneFastPath(t *testing.T) {
	s := pruningFixture(t)
	q := Query{From: 10 * time.Minute, To: 20*time.Minute - time.Second}
	agg, stats, err := s.Aggregate(q, ColX)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != 10 {
		t.Fatalf("aggregate touched %d candidates, want 10", stats.Candidates)
	}
	recs := s.Select(q)
	if agg.Count != len(recs) || agg.Count != 600 {
		t.Fatalf("agg count %d, select %d, want 600", agg.Count, len(recs))
	}
	var sum, mn, mx float64
	for i, r := range recs {
		if i == 0 || r.X < mn {
			mn = r.X
		}
		if i == 0 || r.X > mx {
			mx = r.X
		}
		sum += r.X
	}
	if agg.Min != mn || agg.Max != mx {
		t.Fatalf("agg min/max %v/%v, want %v/%v", agg.Min, agg.Max, mn, mx)
	}
	if !closeEnough(agg.Sum, sum) || !closeEnough(agg.Mean, sum/600) {
		t.Fatalf("agg sum/mean %v/%v, want %v/%v", agg.Sum, agg.Mean, sum, sum/600)
	}
}

// TestColumnNames pins the Column <-> string mapping the CLI and HTTP
// surfaces rely on.
func TestColumnNames(t *testing.T) {
	for _, col := range []Column{ColAt, ColX, ColY, ColPayloadBytes} {
		back, ok := ParseColumn(col.String())
		if !ok || back != col {
			t.Fatalf("column %d does not round-trip (%q)", col, col.String())
		}
	}
	if _, ok := ParseColumn("bogus"); ok {
		t.Fatal("bogus column parsed")
	}
}

// TestIteratorZeroAllocs pins the per-record hot path at zero
// allocations: Next + Record over a multi-segment merge (plus the
// memtable cursor) must not touch the heap.
func TestIteratorZeroAllocs(t *testing.T) {
	s := openStore(t)
	s.SetSealPolicy(1000, time.Minute)
	for i := 0; i < 5000; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	it := s.Scan(Query{})
	var sink uint64
	allocs := testing.AllocsPerRun(3000, func() {
		if !it.Next() {
			t.Fatal("iterator ran dry mid-measurement")
		}
		sink += it.Record().ID
	})
	if allocs != 0 {
		t.Fatalf("iterator hot path allocates %.1f per record, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("no records consumed")
	}
}

// TestScanStableUnderConcurrentMutation: an iterator opened before a
// seal, a delete, and more Puts still streams its snapshot unharmed —
// cursors read only immutable columns. The out-of-order variant starts
// from a memtable that already carries an order index and has the
// concurrent Puts land late, so they insert into the index (and shift its
// tail) while the stream reads its window copy.
func TestScanStableUnderConcurrentMutation(t *testing.T) {
	// Behind the head, spread across the whole open window.
	lateAt := func(i int) time.Duration { return time.Duration(i*449/299)*time.Second + time.Millisecond }
	for _, tc := range []struct {
		name string
		at   func(i int) time.Duration // arrival i's capture time
		late func(i int) time.Duration // concurrent Put i's capture time
	}{
		{
			name: "in-order",
			at:   func(i int) time.Duration { return time.Duration(i) * time.Second },
			late: func(i int) time.Duration { return time.Hour + time.Duration(i)*time.Second },
		},
		{
			// The stream aliases an in-order memtable; the first
			// concurrent Put is the one that builds the index.
			name: "goes-out-of-order",
			at:   func(i int) time.Duration { return time.Duration(i) * time.Second },
			late: lateAt,
		},
		{
			// Pairs arrive swapped: every second row is late.
			name: "out-of-order",
			at:   func(i int) time.Duration { return time.Duration(i^1) * time.Second },
			late: lateAt,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			s.SetSealPolicy(100, time.Minute)
			for i := 0; i < 450; i++ {
				if _, err := s.Put(rec(SourceOBD, tc.at(i), float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			it := s.Scan(Query{})
			// Mutate hard while the iterator is mid-stream.
			mutate := func() error {
				for i := 0; i < 150; i++ {
					if _, err := s.Put(rec(SourceGPS, tc.late(i), 0)); err != nil {
						return err
					}
				}
				if err := s.Seal(); err != nil {
					return err
				}
				if _, err := s.DeleteBefore(200 * time.Second); err != nil {
					return err
				}
				for i := 150; i < 300; i++ {
					if _, err := s.Put(rec(SourceGPS, tc.late(i), 0)); err != nil {
						return err
					}
				}
				return nil
			}
			done := make(chan error, 1)
			go func() { done <- mutate() }()
			n := 0
			var prev Record
			for it.Next() {
				r := it.Record()
				if r.Source != SourceOBD {
					t.Fatalf("record %d (%s at %v) is not part of the snapshot", n, r.Source, r.At)
				}
				if n > 0 && (r.At < prev.At || (r.At == prev.At && r.ID < prev.ID)) {
					t.Fatalf("stream out of (At, ID) order at record %d", n)
				}
				prev = *r
				n++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if n != 450 {
				t.Fatalf("snapshot streamed %d records, want 450", n)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStartCompaction: the virtual-clock schedule seals idle memtables
// and merges partition fragments; stop() cancels the schedule.
func TestStartCompaction(t *testing.T) {
	s := openStore(t)
	s.SetSealPolicy(100, time.Minute)
	for i := 0; i < 450; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// 450 rows in 1-minute partitions with 100-row seals: several
	// fragments per partition plus a 50-row memtable remainder.
	if got := len(s.Segments()); got < 5 {
		t.Fatalf("fixture sealed %d segments, want several", got)
	}
	eng := sim.NewEngine(1)
	stop, err := s.StartCompaction(eng, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// One segment per touched 1-minute partition, memtable sealed too.
	if got, want := len(s.Segments()), 8; got != want {
		t.Fatalf("segments after compaction = %d, want %d", got, want)
	}
	if got := s.Count(); got != 450 {
		t.Fatalf("count after compaction = %d, want 450", got)
	}
	stop()
	before := len(s.Segments())
	for i := 0; i < 250; i++ {
		if _, err := s.Put(rec(SourceGPS, time.Hour+time.Duration(i)*time.Second, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	// The schedule is cancelled: only Put-triggered seals may add
	// segments; nothing merges them back down.
	if got := len(s.Segments()); got < before {
		t.Fatalf("stopped schedule still compacting: %d -> %d segments", before, got)
	}
}
