package ddi

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// lateRowStore builds a memtable-only store of n in-order rows one second
// apart, followed by one row behind the head — the state every running
// node reaches once a social event arrives at its own earlier At.
func lateRowStore(tb testing.TB, n int) *DiskStore {
	tb.Helper()
	s, err := OpenDiskStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, float64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.Put(rec(SourceSocial, time.Duration(n/2)*time.Second, 0)); err != nil {
		tb.Fatal(err)
	}
	if s.mem.ord == nil {
		tb.Fatal("late row did not build the order index")
	}
	return s
}

// allocsPerRun reports heap objects and bytes allocated per call of f.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWindowReadAllocatesWindowNotMemtable: on a 20 000-row memtable with
// one late row, a read whose window holds k rows allocates O(k) bytes in a
// constant number of objects, and an empty window copies no columns.
func TestWindowReadAllocatesWindowNotMemtable(t *testing.T) {
	s := lateRowStore(t, 20000)
	// Fixed columns are 37 bytes a row plus the payload offsets; rec()'s
	// payload is under 16 bytes. 96 bytes a row leaves room for size-class
	// rounding; 1 KB covers the plan, the cursor and the iterator.
	const perRow, fixed, maxObjects = 96, 1024, 16
	for _, k := range []int{0, 10, 1000} {
		q := Query{From: 5000 * time.Second, To: time.Duration(5000+k-1) * time.Second}
		if k == 0 {
			q = Query{From: 20001 * time.Second}
		}
		reads := map[string]func(){
			"Scan": func() {
				it := s.Scan(q)
				n := 0
				for it.Next() {
					n++
				}
				if n != k {
					t.Fatalf("k=%d: Scan streamed %d rows", k, n)
				}
			},
			"Aggregate": func() {
				agg, stats, err := s.Aggregate(q, ColX)
				if err != nil || agg.Count != k || stats.MemRows != k {
					t.Fatalf("k=%d: Aggregate = %+v, %+v, %v", k, agg, stats, err)
				}
			},
		}
		for name, read := range reads {
			objects, bytes := allocsPerRun(50, read)
			if limit := float64(fixed + k*perRow); bytes > limit {
				t.Errorf("%s over %d rows allocates %.0f B, want <= %.0f", name, k, bytes, limit)
			}
			if objects > maxObjects {
				t.Errorf("%s over %d rows allocates %.1f objects, want <= %d", name, k, objects, maxObjects)
			}
			if k == 0 && objects > 4 {
				t.Errorf("%s over an empty window allocates %.1f objects: column copies?", name, objects)
			}
		}
	}
}

// checkOrderIndex compares the memtable's (At, ID) order against the
// naive reference: its rows, read in append order, sorted with sort.Slice.
func checkOrderIndex(t *testing.T, step int, m *memtable) {
	t.Helper()
	want := make([]Record, m.cols.rows())
	for i := range want {
		want[i] = m.cols.record(i)
	}
	sortRecords(want)
	if m.ord != nil && len(m.ord) != len(want) {
		t.Fatalf("step %d: order index holds %d entries for %d rows", step, len(m.ord), len(want))
	}
	got := m.sorted()
	if got.rows() != len(want) {
		t.Fatalf("step %d: ordered view has %d rows, memtable %d", step, got.rows(), len(want))
	}
	for i := range want {
		if got.id[i] != want[i].ID || got.at[i] != int64(want[i].At) ||
			string(got.payload(i)) != string(want[i].Payload) || got.dict[got.src[i]] != want[i].Source {
			t.Fatalf("step %d: ordered row %d is #%d at %d, reference #%d at %d",
				step, i, got.id[i], got.at[i], want[i].ID, want[i].At)
		}
	}
}

// TestOrderIndexMatchesNaiveSort: random interleavings of in-order, late
// and duplicate-At Puts with Seal, DeleteBefore and close/reopen (WAL
// replay rebuilds the index). After every step the index order equals the
// sort.Slice order of the memtable's rows, and the whole store equals the
// sorted shadow of everything put and not deleted.
func TestOrderIndexMatchesNaiveSort(t *testing.T) {
	for _, seed := range []int64{3, 29, 311} {
		dir := t.TempDir()
		s, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.SetSealPolicy(97, 5*time.Second) // auto-seals interleave too
		rng := sim.NewStream(seed, 0)
		sources := []Source{SourceOBD, SourceGPS, SourceSocial}
		var shadow []Record
		head := time.Duration(0)
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(100); {
			case op < 88:
				var at time.Duration
				switch kind := rng.Intn(10); {
				case kind < 5: // in order
					head += time.Duration(rng.Intn(300)) * time.Millisecond
					at = head
				case kind < 7: // duplicate At of the head
					at = head
				default: // late
					at = time.Duration(rng.Uniform(0, float64(head)+1))
				}
				r := rec(sources[rng.Intn(len(sources))], at, rng.Uniform(-100, 100))
				id, err := s.Put(r)
				if err != nil {
					t.Fatal(err)
				}
				r.ID = id
				shadow = append(shadow, r)
			case op < 92:
				if err := s.Seal(); err != nil {
					t.Fatal(err)
				}
			case op < 96:
				cut := time.Duration(rng.Uniform(0, float64(head)/2))
				if _, err := s.DeleteBefore(cut); err != nil {
					t.Fatal(err)
				}
				kept := shadow[:0]
				for _, r := range shadow {
					if r.At >= cut {
						kept = append(kept, r)
					}
				}
				shadow = kept
			default:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = OpenDiskStore(dir); err != nil {
					t.Fatal(err)
				}
				s.SetSealPolicy(97, 5*time.Second)
			}
			checkOrderIndex(t, step, s.mem)
			if step%20 == 0 || step == 599 {
				got, want := s.Select(Query{}), fullScanSelect(shadow, Query{})
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: store holds %d records, shadow %d", seed, step, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("seed %d step %d: record %d is #%d, shadow #%d", seed, step, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
