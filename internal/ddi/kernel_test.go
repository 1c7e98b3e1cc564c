package ddi

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// rowAggregate is the per-row aggregate loop the column kernels replaced:
// zone maps for fully covered sealed cursors, otherwise every row of every
// cursor in order, one value at a time.
func rowAggregate(it *Iterator, col Column) Agg {
	var a Agg
	for i := range it.curs {
		c := &it.curs[i]
		if c.zm != nil && c.whole() && c.idx == 0 && c.hi == c.cols.rows() {
			zoneAgg(&a, c.zm, col)
			continue
		}
		for j := c.idx; j < c.hi; j++ {
			v := colValue(c.cols, col, rowAt(c, j))
			if a.Count == 0 || v < a.Min {
				a.Min = v
			}
			if a.Count == 0 || v > a.Max {
				a.Max = v
			}
			a.Sum += v
			a.Count++
		}
	}
	if a.Count > 0 {
		a.Mean = a.Sum / float64(a.Count)
	}
	return a
}

// rowAt is the column row at position j of cursor c.
func rowAt(c *planCursor, j int) int {
	if c.perm != nil {
		return int(c.perm[j])
	}
	return j
}

// sameFloat is bit equality, except that any NaN equals any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameAgg(a, b Agg) bool {
	return a.Count == b.Count && sameFloat(a.Min, b.Min) && sameFloat(a.Max, b.Max) &&
		sameFloat(a.Sum, b.Sum) && sameFloat(a.Mean, b.Mean)
}

// TestPredicateFreeAggregateBitIdentical: without residual predicates the
// aggregate folds column slices, and its Min/Max/Sum/Mean must be the
// per-row loop's bit for bit, for every column, over sealed segments
// (covered and partial) and an out-of-order memtable.
func TestPredicateFreeAggregateBitIdentical(t *testing.T) {
	s := openStore(t)
	s.SetSealPolicy(4096, 5*time.Minute)
	buildCorpus(t, s, 20_000, 303)
	queries := []Query{
		{},
		{From: 7*time.Minute + 3*time.Second, To: 41*time.Minute + 17*time.Second},
		{From: 52 * time.Minute},
		{To: 3*time.Minute + time.Second},
		{From: 33 * time.Minute, To: 33 * time.Minute},
	}
	orderMatters := false
	for qi, q := range queries {
		for _, col := range []Column{ColAt, ColX, ColY, ColPayloadBytes} {
			compile := func() *Iterator {
				s.mu.RLock()
				defer s.mu.RUnlock()
				it := new(Iterator)
				if err := compilePlan(it, q, s.segs, s.mem, false); err != nil {
					t.Fatal(err)
				}
				return it
			}
			ref := compile()
			for _, c := range ref.curs {
				if !c.whole() {
					t.Fatalf("query %d: a cursor kept a residual predicate", qi)
				}
			}
			want, got := rowAggregate(ref, col), compile().aggregate(col)
			if !sameAgg(got, want) {
				t.Fatalf("query %d column %v:\n  kernels  %+v\n  per row  %+v", qi, col, got, want)
			}
			// The test has teeth only if summing in another order shows.
			var fwd, rev float64
			for _, c := range ref.curs {
				for j := c.idx; j < c.hi; j++ {
					fwd += colValue(c.cols, col, rowAt(&c, j))
				}
			}
			for i := len(ref.curs) - 1; i >= 0; i-- {
				c := ref.curs[i]
				for j := c.hi - 1; j >= c.idx; j-- {
					rev += colValue(c.cols, col, rowAt(&c, j))
				}
			}
			orderMatters = orderMatters || fwd != rev
		}
	}
	if !orderMatters {
		t.Fatal("no query's sum depends on summation order; the corpus cannot catch a reordered kernel")
	}
}

// TestSelectAllocatesResultOnce: when every cursor is predicate-free the
// plan knows the row count, so Select allocates its result once, however
// many rows it returns, and nothing else: its iterator, with cursors past
// the inline eight, comes warm from the pool. Under -race, whose pool drops
// some puts, it allocates at most what a Scan does plus the result.
func TestSelectAllocatesResultOnce(t *testing.T) {
	s := openStore(t)
	s.SetSealPolicy(1000, time.Minute)
	for i := 0; i < 5000; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []Query{
		{From: 500 * time.Second, To: 4900 * time.Second}, // segments and the memtable
		{From: 100 * time.Second, Limit: 777},
	} {
		var n int
		scan := testing.AllocsPerRun(20, func() {
			it := s.Scan(q)
			for it.Next() {
			}
		})
		sel := testing.AllocsPerRun(20, func() { n = len(s.Select(q)) })
		if n < 500 {
			t.Fatalf("query %+v selected %d rows; too few to tell growth from one allocation", q, n)
		}
		if sel > scan+1 || (!raceEnabled && sel != 1) {
			t.Fatalf("query %+v: Select allocates %.1f objects, the scan alone %.1f; want 1", q, sel, scan)
		}
	}
}

// TestStoreReadAllocs: on an in-order store of eight segments and a
// memtable, a read allocates only what it hands back. Aggregate allocates
// nothing, Select its result, Scan its iterator, and DDI.DownloadAppend
// nothing into a dst that has room. Under -race, whose pool drops some
// puts, each pooled read may allocate its iterator too.
func TestStoreReadAllocs(t *testing.T) {
	d := newDDI(t)
	s := d.store
	s.SetSealPolicy(2000, 10*time.Minute)
	sources := []Source{SourceOBD, SourceGPS, SourceTraffic}
	for i := 0; i < 5000; i++ {
		r := Record{Source: sources[i%3], At: time.Duration(i) * time.Second,
			X: float64(i%200 - 100), Y: float64(i % 7), Payload: []byte(`{"v":1}`)}
		if _, err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segs) != 8 || s.mem.cols.rows() == 0 || s.mem.ord != nil {
		t.Fatalf("%d segments, %d memtable rows, order index %v: not the layout under test",
			len(s.segs), s.mem.cols.rows(), s.mem.ord != nil)
	}
	pooled := 0.0
	if raceEnabled {
		pooled = 1
	}
	queries := []struct {
		q     Query
		exact bool // predicate-free, so Select sizes its result once
	}{
		{Query{From: 1500 * time.Second, To: 4500 * time.Second}, true},
		{Query{From: 4100 * time.Second, Limit: 100}, true},
		{Query{Source: SourceGPS, From: 3000 * time.Second}, false},
		{Query{From: 600 * time.Second, To: 2400 * time.Second, X: 0, Y: 3, Radius: 40}, false},
	}
	type read struct {
		name  string
		bound float64
		run   func()
	}
	var dst []Record
	for _, tc := range queries {
		q := tc.q
		reads := []read{
			{"Aggregate", pooled, func() {
				if _, _, err := s.Aggregate(q, ColY); err != nil {
					t.Fatal(err)
				}
			}},
			{"Scan", 1, func() {
				it := s.Scan(q)
				for it.Next() {
				}
			}},
			{"DownloadAppend", pooled, func() {
				var err error
				if dst, _, err = d.DownloadAppend(dst[:0], time.Hour, q); err != nil || len(dst) == 0 {
					t.Fatalf("DownloadAppend: %d records, %v", len(dst), err)
				}
			}},
		}
		if tc.exact {
			reads = append(reads, read{"Select", 1 + pooled, func() { s.Select(q) }})
		}
		for _, r := range reads {
			r.run() // warm the pool and dst
			if n := testing.AllocsPerRun(50, r.run); n > r.bound || (r.name == "Scan" && n != 1) {
				t.Errorf("%s %+v: %.1f allocations, want <= %.0f", r.name, q, n, r.bound)
			}
		}
	}
}

// TestPooledReadResultsSurviveReuse: Select's and DDI.DownloadAppend's
// results own nothing of the pooled iterator that produced them, so reads
// that reuse it, concurrent ones included, leave them as they were.
func TestPooledReadResultsSurviveReuse(t *testing.T) {
	d := newDDI(t)
	s := d.store
	s.SetSealPolicy(500, time.Minute)
	sources := []Source{SourceOBD, SourceGPS, SourceTraffic}
	rng := sim.NewStream(7, 2)
	for i := 0; i < 1800; i++ {
		at := time.Duration(60+i) * time.Second
		if i%5 == 4 {
			at -= 30 * time.Second // behind the head: the memtable keeps an order index
		}
		r := Record{Source: sources[i%3], At: at, X: rng.Uniform(-50, 50), Payload: fmt.Appendf(nil, `{"i":%d}`, i)}
		if _, err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.mem.ord == nil {
		t.Fatal("no order index: the memtable cursor would not read through one")
	}
	q := Query{From: 1200 * time.Second}
	sel := s.Select(q)
	dl, _, err := d.DownloadAppend(nil, time.Hour, q)
	if err != nil || len(sel) == 0 || len(dl) != len(sel) {
		t.Fatalf("Select %d records, DownloadAppend %d (%v)", len(sel), len(dl), err)
	}
	wantSel, wantDL := fmt.Sprint(sel), fmt.Sprint(dl)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := time.Duration((g*50+i)*7%1800) * time.Second
				s.Select(Query{From: from, Source: sources[i%3]})
				if _, _, err := s.Aggregate(Query{From: from, X: 0, Radius: 20}, ColX); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var dst []Record
	for i := 0; i < 50; i++ {
		if dst, _, err = d.DownloadAppend(dst[:0], time.Hour, Query{From: time.Duration(i*30) * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if fmt.Sprint(sel) != wantSel || fmt.Sprint(dl) != wantDL {
		t.Fatal("a pooled read's result changed after later reads reused its iterator")
	}
}

// fuzzCoord maps a byte to a coordinate: the first 16 values are the
// awkward ones (NaN, infinities, signed zero, extremes), the rest a small
// grid so that circles catch rows.
func fuzzCoord(b byte) float64 {
	special := [16]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1, 0.5, 3, -3, 100, -100, 7.25}
	if b < 16 {
		return special[b]
	}
	return float64(int(b)-136) / 4
}

// fuzzRuns decodes data into two runs of rows: one sorted by (At, ID) to
// seal as a segment (zone map built over it) and one appended in arrival
// order to a memtable, which builds its order index on the first row that
// lands behind the head. Each row takes five bytes: At, source index, x, y,
// and a byte whose low bit picks the run and whose rest sizes the payload.
// IDs follow input order, so rows interleave across the runs.
func fuzzRuns(data []byte, dict []Source) (sealed *segCols, mem *memtable) {
	var runs [2][]Record
	blob := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	for i := 0; i+5 <= len(data); i += 5 {
		b := data[i : i+5]
		r := Record{
			ID:      uint64(i/5 + 1),
			At:      time.Duration(b[0]),
			Source:  dict[int(b[1])%len(dict)],
			X:       fuzzCoord(b[2]),
			Y:       fuzzCoord(b[3]),
			Payload: blob[:int(b[4]>>1)%len(blob)],
		}
		runs[b[4]&1] = append(runs[b[4]&1], r)
	}
	sortRecords(runs[0])
	var out [2]*memtable
	for k, rs := range runs {
		if len(rs) == 0 {
			continue
		}
		m := &memtable{cols: segCols{payOff: []uint32{0}}, srcIdx: make(map[Source]uint8)}
		for _, d := range dict { // the whole dictionary, used or not
			m.srcIdx[d] = uint8(len(m.cols.dict))
			m.cols.dict = append(m.cols.dict, d)
		}
		for i := range rs {
			if err := m.append(&rs[i]); err != nil {
				panic(err)
			}
		}
		out[k] = m
	}
	if out[0] != nil {
		sealed = &out[0].cols
	}
	return sealed, out[1]
}

// FuzzPlanKernels: for arbitrary columns — NaN and infinite coordinates,
// one-entry to 256-entry dictionaries — and arbitrary queries — empty and
// inverted windows, radius zero, negative or non-finite, limits — a plan
// over a sealed segment and a memtable streams exactly the rows
// Query.Matches keeps, in (At, ID) order, and aggregates them bit for bit
// as the per-row reference does in cursor order. A memtable with rows
// behind its head is read through its order index: copied for the stream,
// in place for the aggregate.
func FuzzPlanKernels(f *testing.F) {
	f.Add([]byte{9, 0, 140, 140, 3, 3, 1, 144, 130, 5, 5, 0, 0, 136, 1, 1, 1, 136, 136, 7, 5, 2, 150, 150, 2},
		int64(2), int64(8), 0.0, 0.0, 0.0, uint8(255), uint8(0), uint8(2))
	f.Add([]byte{9, 0, 140, 140, 3, 3, 1, 144, 130, 5, 5, 0, 0, 136, 1, 1, 1, 136, 136, 7, 5, 2, 150, 150, 2},
		int64(0), int64(0), 1.0, 1.0, 3.0, uint8(1), uint8(0), uint8(2))
	f.Add([]byte{1, 0, 140, 140, 2, 2, 1, 144, 130, 3, 2, 0, 0, 136, 4, 5, 1, 136, 136, 9},
		int64(0), int64(0), 0.0, 0.0, 2.0, uint8(255), uint8(0), uint8(1))
	f.Add([]byte{1, 0, 140, 140, 2, 2, 1, 144, 130, 3, 2, 0, 0, 136, 4, 5, 1, 136, 136, 9},
		int64(1), int64(4), 0.0, 0.0, 0.0, uint8(1), uint8(2), uint8(2))
	f.Add([]byte{3, 7, 0, 136, 0, 3, 9, 1, 2, 1, 4, 200, 3, 4, 6, 4, 11, 136, 0, 7},
		int64(5), int64(2), 1.0, 0.0, math.Inf(1), uint8(200), uint8(0), uint8(255))
	f.Add([]byte{0, 0, 136, 136, 0, 9, 0, 0, 136, 1, 9, 1, 136, 0, 2},
		int64(-3), int64(-1), math.NaN(), 0.0, 1.0, uint8(0), uint8(1), uint8(0))
	f.Add([]byte{0, 0, 1, 136, 0, 0, 1, 1, 1, 1, 8, 2, 5, 5, 2},
		int64(0), int64(100), math.Inf(1), 0.0, 5.0, uint8(254), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, from, to int64, qx, qy, r float64, srcSel, limit, dictSize uint8) {
		dict := make([]Source, int(dictSize)+1)
		for i := range dict {
			dict[i] = Source(fmt.Sprintf("s%d", i))
		}
		sealed, mem := fuzzRuns(data, dict)
		q := Query{From: time.Duration(from), To: time.Duration(to), X: qx, Y: qy, Radius: r, Limit: int(limit)}
		switch srcSel {
		case 255: // no source filter
		case 254:
			q.Source = "absent"
		default:
			q.Source = dict[int(srcSel)%len(dict)]
		}
		var segs []*segment
		var shadow []Record // cursor order: the segment's rows, then the memtable's
		if sealed != nil {
			sg := &segment{zm: sealed.buildZoneMap(), cols: sealed}
			segs = append(segs, sg)
			for i := 0; i < sealed.rows(); i++ {
				shadow = append(shadow, sealed.record(i))
			}
		}
		if mem != nil {
			memRows := make([]Record, mem.cols.rows())
			for i := range memRows {
				memRows[i] = mem.cols.record(i)
			}
			sortRecords(memRows)
			shadow = append(shadow, memRows...)
		}
		compile := func(locked bool) *Iterator {
			it := new(Iterator)
			if err := compilePlan(it, q, segs, mem, locked); err != nil {
				t.Fatal(err)
			}
			return it
		}

		want := fullScanSelect(shadow, q)
		it := compile(false)
		if n, ok := it.exactLen(); ok && n != len(want) {
			t.Fatalf("exactLen promises %d rows, the reference finds %d", n, len(want))
		}
		var got []uint64
		for it.Next() {
			got = append(got, it.Record().ID)
		}
		if len(got) != len(want) {
			t.Fatalf("scan yields %d rows %v, the reference %d", len(got), got, len(want))
		}
		for i := range got {
			if got[i] != want[i].ID {
				t.Fatalf("row %d: scan yields id %d, the reference id %d", i, got[i], want[i].ID)
			}
		}

		for _, col := range []Column{ColAt, ColX, ColY, ColPayloadBytes} {
			got, want := compile(true).aggregate(col), refAggregate(shadow, q, col)
			if !sameAgg(got, want) {
				t.Fatalf("aggregate %v:\n  plan       %+v\n  reference  %+v", col, got, want)
			}
		}
	})
}

// TestCompactIsDeterministic: two stores fed the same puts compact to the
// same segment files — partitions merge in ascending order, so each one
// gets the same sequence number every time.
func TestCompactIsDeterministic(t *testing.T) {
	layout := func() [][2]int64 {
		s := openStore(t)
		// 100-row seals over 1-minute partitions: 20 partitions, each
		// holding two or three seal fragments.
		s.SetSealPolicy(100, time.Minute)
		rng := sim.NewStream(11, 1)
		for i := 0; i < 1200; i++ {
			if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		before := s.nextSeq
		if merged, err := s.Compact(); err != nil || merged == 0 {
			t.Fatalf("Compact merged %d: %v", merged, err)
		}
		var out [][2]int64
		for _, sg := range s.segs {
			out = append(out, [2]int64{int64(sg.seq), int64(sg.zm.MinAt)})
		}
		merged := out[sort.Search(len(out), func(i int) bool { return uint64(out[i][0]) >= before }):]
		if !sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i][1] < merged[j][1] }) {
			t.Fatalf("merged segments are numbered out of partition order: %v", merged)
		}
		return out
	}
	a, b := layout(), layout()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same puts, different compaction:\n  %v\n  %v", a, b)
	}
}
