package ddi

import (
	"sort"
	"time"
)

// The query planner compiles a ddi.Query into a plan: zone-map pruning
// picks the segments that can hold matching rows (a pruned segment is
// never read), a binary search on each candidate's sorted At column
// narrows to the exact row range, and per-row predicates (source,
// spatial) are kept only when the zone map cannot prove them vacuous.
// The plan lives in an Iterator, which drives both the streaming merge and
// the aggregate path.

// Column names a numeric column an aggregate can run over.
type Column int

// Aggregatable columns.
const (
	// ColAt aggregates capture time (values in nanoseconds).
	ColAt Column = iota
	// ColX / ColY aggregate the position columns.
	ColX
	ColY
	// ColPayloadBytes aggregates payload sizes.
	ColPayloadBytes
)

// String names the column for CLI/HTTP surfaces.
func (c Column) String() string {
	switch c {
	case ColAt:
		return "at"
	case ColX:
		return "x"
	case ColY:
		return "y"
	case ColPayloadBytes:
		return "payload_bytes"
	}
	return "unknown"
}

// ParseColumn maps a column name to its Column, reversing String.
func ParseColumn(s string) (Column, bool) {
	switch s {
	case "at":
		return ColAt, true
	case "x":
		return ColX, true
	case "y":
		return ColY, true
	case "payload_bytes":
		return ColPayloadBytes, true
	}
	return 0, false
}

// Agg is a windowed aggregate over one column.
type Agg struct {
	// Count is the number of matching records.
	Count int `json:"count"`
	// Min/Max/Sum/Mean summarize the column over matching records; all
	// zero when Count is zero.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
}

// PlanStats reports what a compiled plan decided, for Aggregate,
// Iterator.Stats and the pruning benchmarks.
type PlanStats struct {
	// Segments is how many sealed segments existed at plan time.
	Segments int `json:"segments"`
	// Candidates survived zone-map pruning (their files were read).
	Candidates int `json:"candidates"`
	// Pruned segments were skipped without touching disk.
	Pruned int `json:"pruned"`
	// RowsScanned is the total row count inside candidate row ranges,
	// including the memtable's window.
	RowsScanned int `json:"rowsScanned"`
	// MemRows is the memtable's share of RowsScanned.
	MemRows int `json:"memRows"`
}

// SkipRatio is the fraction of sealed segments the plan never read.
func (p PlanStats) SkipRatio() float64 {
	if p.Segments == 0 {
		return 0
	}
	return float64(p.Pruned) / float64(p.Segments)
}

// planCursor scans one run (a sealed segment's row range, or the
// memtable snapshot) with the residual per-row predicates the zone map
// could not discharge. Over a memtable with an order index, perm holds its
// window's rows in (At, ID) order and idx and hi index perm; otherwise they
// index the columns.
type planCursor struct {
	cols *segCols
	zm   *ZoneMap // nil for the memtable cursor
	perm []uint32 // nil when the rows already sit in (At, ID) order
	idx  int      // current position
	hi   int      // exclusive upper position

	srcNeeded bool
	srcIdx    uint8
	geoNeeded bool
}

// whole reports that no per-row predicate applies inside [idx, hi).
func (c *planCursor) whole() bool { return !c.srcNeeded && !c.geoNeeded }

// row is the column row at the cursor's position.
func (c *planCursor) row() int {
	if c.perm != nil {
		return int(c.perm[c.idx])
	}
	return c.idx
}

// seek advances c.idx to the next position in [idx, hi) whose row passes
// the residual predicates, or to hi; a whole cursor never moves. It is the
// only place a residual predicate is evaluated: a cursor through perm tests
// rows one by one, and each predicate shape of a cursor over its columns
// in place has its own loop over column slices cut to hi, with the query
// constants in locals. The spatial test is written !(d > r2) so that a NaN
// distance matches, as in Query.Matches.
func (it *Iterator) seek(c *planCursor) {
	i, hi := c.idx, c.hi
	switch {
	case c.perm != nil:
		perm, cols, gx, gy, r2 := c.perm[:hi], c.cols, it.gx, it.gy, it.r2
		for ; i < len(perm); i++ {
			r := perm[i]
			if c.srcNeeded && cols.src[r] != c.srcIdx {
				continue
			}
			if !c.geoNeeded {
				break
			}
			dx, dy := cols.x[r]-gx, cols.y[r]-gy
			if !(dx*dx+dy*dy > r2) {
				break
			}
		}
	case c.srcNeeded && c.geoNeeded:
		src, xs, ys := c.cols.src[:hi], c.cols.x[:hi], c.cols.y[:hi]
		want, gx, gy, r2 := c.srcIdx, it.gx, it.gy, it.r2
		for ; i < len(src); i++ {
			if src[i] != want {
				continue
			}
			dx, dy := xs[i]-gx, ys[i]-gy
			if !(dx*dx+dy*dy > r2) {
				break
			}
		}
	case c.srcNeeded:
		src, want := c.cols.src[:hi], c.srcIdx
		for i < len(src) && src[i] != want {
			i++
		}
	case c.geoNeeded:
		xs, ys := c.cols.x[:hi], c.cols.y[:hi]
		gx, gy, r2 := it.gx, it.gy, it.r2
		for ; i < len(xs); i++ {
			dx, dy := xs[i]-gx, ys[i]-gy
			if !(dx*dx+dy*dy > r2) {
				break
			}
		}
	}
	c.idx = i
}

// atRange binary-searches the At column, read through ord when it is
// non-nil, for the query window (to <= 0 unbounded above, matching
// Query.Matches). The range indexes ord when there is one.
func atRange(at []int64, ord []uint32, from, to time.Duration) (lo, hi int) {
	n := len(at)
	if ord != nil {
		n = len(ord)
	}
	key := func(i int) int64 {
		if ord != nil {
			return at[ord[i]]
		}
		return at[i]
	}
	lo = sort.Search(n, func(i int) bool { return key(i) >= int64(from) })
	hi = n
	if to > 0 {
		hi = lo + sort.Search(n-lo, func(i int) bool { return key(lo+i) > int64(to) })
	}
	return lo, hi
}

// addCursor appends a cursor over cols (zone map zm when sealed; ord when
// they are a memtable with an order index) with the residual predicates q
// needs, and returns it; it returns nil, adding nothing, when the range is
// empty.
func (it *Iterator) addCursor(q Query, cols *segCols, zm *ZoneMap, ord []uint32) *planCursor {
	lo, hi := atRange(cols.at, ord, q.From, q.To)
	if lo >= hi {
		return nil
	}
	c := planCursor{cols: cols, zm: zm, idx: lo, hi: hi}
	if ord != nil {
		c.perm, c.idx, c.hi = ord[lo:hi], 0, hi-lo
	}
	if q.Source != "" {
		// The window rows all share the segment dictionary; a
		// single-entry dictionary proves the predicate row-free.
		found := false
		for i, s := range cols.dict {
			if s == q.Source {
				c.srcIdx = uint8(i)
				found = true
				break
			}
		}
		if !found {
			return nil // no row can match (memtable cursors lack zone-map pruning)
		}
		c.srcNeeded = len(cols.dict) > 1
	}
	if q.Radius > 0 {
		c.geoNeeded = zm == nil || !zm.ContainsCircle(q.X, q.Y, q.Radius)
	}
	it.seek(&c)
	it.stats.RowsScanned += hi - lo
	if zm == nil {
		it.stats.MemRows += hi - lo
	}
	if it.curs == nil {
		it.curs = it.cursBuf[:0]
	}
	it.curs = append(it.curs, c)
	return &it.curs[len(it.curs)-1]
}

// compilePlan fills it, fresh or cleared, with q's plan under the store's
// read lock: zone maps prune segs, the candidates load, and every run left
// gets a cursor, the memtable m's last. When the caller reads the plan
// only under that lock (locked), the memtable cursor reads m.ord in place;
// otherwise it reads a copy of its window of ord, kept in it.ord.
func compilePlan(it *Iterator, q Query, segs []*segment, m *memtable, locked bool) error {
	it.limit = q.Limit
	it.stats.Segments = len(segs)
	if q.Radius > 0 {
		it.gx, it.gy, it.r2 = q.X, q.Y, q.Radius*q.Radius
	}
	for _, sg := range segs {
		zm := &sg.zm
		if !zm.OverlapsWindow(q.From, q.To) ||
			(q.Source != "" && !zm.HasSource(q.Source)) ||
			(q.Radius > 0 && !zm.IntersectsCircle(q.X, q.Y, q.Radius)) {
			it.stats.Pruned++
			continue
		}
		it.stats.Candidates++
		cols, err := sg.load()
		if err != nil {
			it.err = err
			return err
		}
		it.addCursor(q, cols, zm, nil)
	}
	if m != nil && m.cols.rows() > 0 {
		it.mem = m.cols // a value copy pins the slice lengths
		if c := it.addCursor(q, &it.mem, nil, m.ord); c != nil && c.perm != nil && !locked {
			it.ord = append(it.ord[:0], c.perm...)
			c.perm = it.ord
		}
	}
	it.initHeap()
	return nil
}

// colValue reads column col of row i.
func colValue(cols *segCols, col Column, i int) float64 {
	switch col {
	case ColAt:
		return float64(cols.at[i])
	case ColX:
		return cols.x[i]
	case ColY:
		return cols.y[i]
	default:
		return float64(cols.payOff[i+1] - cols.payOff[i])
	}
}

// zoneAgg folds a fully-covered segment's zone map into the aggregate
// without touching its columns.
func zoneAgg(a *Agg, zm *ZoneMap, col Column) {
	var mn, mx, sum float64
	switch col {
	case ColAt:
		mn, mx, sum = float64(zm.MinAt), float64(zm.MaxAt), zm.SumAt
	case ColX:
		mn, mx, sum = zm.MinX, zm.MaxX, zm.SumX
	case ColY:
		mn, mx, sum = zm.MinY, zm.MaxY, zm.SumY
	default:
		mn, mx, sum = float64(zm.MinPayload), float64(zm.MaxPayload), zm.SumPayload
	}
	if a.Count == 0 || mn < a.Min {
		a.Min = mn
	}
	if a.Count == 0 || mx > a.Max {
		a.Max = mx
	}
	a.Sum += sum
	a.Count += zm.Count
}

// fold adds one value to the aggregate.
func (a *Agg) fold(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Sum += v
	a.Count++
}

// foldColumn folds rows [lo, hi) of col into a, one tight loop per column
// over its slice. Rows are taken in order and summed one after another, so
// the result is bit for bit what fold would give row by row.
func foldColumn(a *Agg, cols *segCols, col Column, lo, hi int) {
	if lo >= hi {
		return
	}
	switch col {
	case ColAt:
		foldValues(a, cols.at[lo:hi])
	case ColX:
		foldValues(a, cols.x[lo:hi])
	case ColY:
		foldValues(a, cols.y[lo:hi])
	default:
		foldPayloadSizes(a, cols.payOff[lo:hi+1])
	}
}

// foldValues folds a non-empty column slice into a.
func foldValues[T int64 | float64](a *Agg, vs []T) {
	mn, mx, sum := a.Min, a.Max, a.Sum
	if a.Count == 0 {
		mn, mx = float64(vs[0]), float64(vs[0])
	}
	for _, t := range vs {
		v := float64(t)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
	}
	a.Min, a.Max, a.Sum = mn, mx, sum
	a.Count += len(vs)
}

// foldPayloadSizes folds the payload sizes that the offsets off (one more
// than the rows, at least two) delimit into a.
func foldPayloadSizes(a *Agg, off []uint32) {
	mn, mx, sum := a.Min, a.Max, a.Sum
	if a.Count == 0 {
		mn = float64(off[1] - off[0])
		mx = mn
	}
	prev := off[0]
	for _, o := range off[1:] {
		v := float64(o - prev)
		prev = o
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
	}
	a.Min, a.Max, a.Sum = mn, mx, sum
	a.Count += len(off) - 1
}

// aggregate folds the plan into a windowed aggregate over col, consuming
// its cursors. A sealed cursor whose row range covers the whole segment
// with no residual predicates contributes straight from its zone map; any
// other predicate-free cursor over its columns in place folds its column
// slice; a cursor through perm, or with a predicate, folds the rows seek
// stops on, one at a time.
func (it *Iterator) aggregate(col Column) Agg {
	var a Agg
	for i := range it.curs {
		c := &it.curs[i]
		switch {
		case c.zm != nil && c.whole() && c.idx == 0 && c.hi == c.cols.rows():
			zoneAgg(&a, c.zm, col)
		case c.whole() && c.perm == nil:
			foldColumn(&a, c.cols, col, c.idx, c.hi)
		default:
			for c.idx < c.hi {
				a.fold(colValue(c.cols, col, c.row()))
				c.idx++
				if !c.whole() {
					it.seek(c)
				}
			}
		}
	}
	if a.Count > 0 {
		a.Mean = a.Sum / float64(a.Count)
	}
	return a
}
