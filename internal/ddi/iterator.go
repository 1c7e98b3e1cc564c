package ddi

import (
	"sync"
	"time"
)

// Iterator streams a compiled plan's matching records in (At, ID) order
// without materialising a slice. The per-record hot path allocates
// nothing: Record() returns a pointer into the iterator whose payload
// aliases the decoded segment block (valid until the next Next call if
// the caller does not copy; Select copies survivors). The iterator holds
// its whole plan — stats, cursors, merge heap, the memtable's columns — so
// Scan allocates it and, over an out-of-order memtable, a copy of the
// window's order, 4 B a row, and nothing else.
//
//	it := store.Scan(q)
//	for it.Next() {
//	    r := it.Record()
//	    ...
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	curs  []planCursor
	heap  []int // cursor indexes, min-keyed by (At, ID) at each idx
	rec   Record
	limit int
	sent  int
	err   error
	stats PlanStats

	gx, gy, r2 float64  // the query circle, when there is one
	mem        segCols  // the memtable's columns as the plan found them
	ord        []uint32 // a copy of the memtable window's order, when taken
	cursBuf    [8]planCursor
	heapBuf    [8]int
}

// iterPool holds the iterators of reads that never let theirs leave the
// call: Aggregate, Select and DDI.DownloadAppend.
var iterPool = sync.Pool{New: func() any { return new(Iterator) }}

// borrowIterator takes a cleared iterator from the pool.
func borrowIterator() *Iterator { return iterPool.Get().(*Iterator) }

// release clears it, keeping only the capacity of its cursor, heap and
// order buffers, and pools it: no column or record it read stays reachable.
func (it *Iterator) release() {
	clear(it.curs)
	curs, heap, ord := it.curs[:0], it.heap[:0], it.ord[:0]
	*it = Iterator{curs: curs, heap: heap, ord: ord}
	iterPool.Put(it)
}

// initHeap builds the k-way merge over the cursors that hold a row.
func (it *Iterator) initHeap() {
	if it.heap == nil {
		it.heap = it.heapBuf[:0]
	}
	for i := range it.curs {
		if it.curs[i].idx < it.curs[i].hi {
			it.heap = append(it.heap, i)
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.siftDown(i)
	}
}

// less orders cursor ca's current row before cursor cb's.
func less(ca, cb *planCursor) bool {
	ra, rb := ca.row(), cb.row()
	aa, ab := ca.cols.at[ra], cb.cols.at[rb]
	if aa != ab {
		return aa < ab
	}
	return ca.cols.id[ra] < cb.cols.id[rb]
}

func (it *Iterator) siftDown(i int) {
	h := it.heap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && less(&it.curs[h[l]], &it.curs[h[small]]) {
			small = l
		}
		if r < len(h) && less(&it.curs[h[r]], &it.curs[h[small]]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// fill materialises row i of cols into it.rec.
func (it *Iterator) fill(cols *segCols, i int) {
	it.rec.ID = cols.id[i]
	it.rec.Source = cols.dict[cols.src[i]]
	it.rec.At = time.Duration(cols.at[i])
	it.rec.X = cols.x[i]
	it.rec.Y = cols.y[i]
	it.rec.Payload = cols.payload(i)
}

// Next advances to the next matching record, reporting false at the end
// of the stream (or on a compile error; see Err).
func (it *Iterator) Next() bool {
	if it.err != nil || len(it.heap) == 0 || (it.limit > 0 && it.sent >= it.limit) {
		return false
	}
	c := &it.curs[it.heap[0]]
	it.fill(c.cols, c.row())
	it.sent++
	c.idx++
	if !c.whole() {
		it.seek(c)
	}
	if c.idx >= c.hi {
		last := len(it.heap) - 1
		it.heap[0] = it.heap[last]
		it.heap = it.heap[:last]
	}
	if len(it.heap) > 1 {
		it.siftDown(0)
	}
	return true
}

// exactLen reports how many more records Next will yield when no cursor
// carries a residual predicate: Σ(hi − idx), capped by the limit. It
// reports false when only running the predicates would tell.
func (it *Iterator) exactLen() (int, bool) {
	n := 0
	for i := range it.curs {
		c := &it.curs[i]
		if !c.whole() {
			return 0, false
		}
		n += c.hi - c.idx
	}
	if it.limit > 0 && n > it.limit-it.sent {
		n = it.limit - it.sent
	}
	return n, true
}

// Record returns the current record. The pointer and its payload remain
// valid only until the next Next call; copy to retain.
func (it *Iterator) Record() *Record { return &it.rec }

// Err reports a plan-compilation failure (segment I/O or corruption).
func (it *Iterator) Err() error { return it.err }

// Stats reports what the plan pruned and scanned.
func (it *Iterator) Stats() PlanStats { return it.stats }
