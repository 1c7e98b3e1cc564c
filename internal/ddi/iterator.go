package ddi

import "time"

// Iterator streams a compiled plan's matching records in (At, ID) order
// without materialising a slice. The per-record hot path allocates
// nothing: Record() returns a pointer into the iterator whose payload
// aliases the decoded segment block (valid until the next Next call if
// the caller does not copy; Select copies survivors).
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
}

// newIterator builds the k-way merge over the plan's cursors.
func newIterator(p *plan, limit int) *Iterator {
	it := &Iterator{curs: p.curs, limit: limit, stats: p.stats}
	it.heap = make([]int, 0, len(it.curs))
	for i := range it.curs {
		if it.curs[i].idx < it.curs[i].hi {
			it.heap = append(it.heap, i)
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.siftDown(i)
	}
	return it
}

// errIterator carries a plan-compilation failure.
func errIterator(err error) *Iterator { return &Iterator{err: err} }

// less orders cursor a's current row before cursor b's.
func (it *Iterator) less(a, b int) bool {
	ca, cb := &it.curs[a], &it.curs[b]
	aa, ab := ca.cols.at[ca.idx], cb.cols.at[cb.idx]
	if aa != ab {
		return aa < ab
	}
	return ca.cols.id[ca.idx] < cb.cols.id[cb.idx]
}

func (it *Iterator) siftDown(i int) {
	h := it.heap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && it.less(h[l], h[small]) {
			small = l
		}
		if r < len(h) && it.less(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// fill materialises cursor c's current row into it.rec.
func (it *Iterator) fill(c *planCursor) {
	i := c.idx
	it.rec.ID = c.cols.id[i]
	it.rec.Source = c.cols.dict[c.cols.src[i]]
	it.rec.At = time.Duration(c.cols.at[i])
	it.rec.X = c.cols.x[i]
	it.rec.Y = c.cols.y[i]
	it.rec.Payload = c.cols.payload(i)
}

// Next advances to the next matching record, reporting false at the end
// of the stream (or on a compile error; see Err).
func (it *Iterator) Next() bool {
	if it.err != nil || len(it.heap) == 0 || (it.limit > 0 && it.sent >= it.limit) {
		return false
	}
	c := &it.curs[it.heap[0]]
	it.fill(c)
	it.sent++
	c.idx++
	c.seek()
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
