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
// The same plan drives the streaming iterator and the aggregate path.

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
// could not discharge.
type planCursor struct {
	cols *segCols
	zm   *ZoneMap // nil for the memtable cursor
	idx  int      // current row
	hi   int      // exclusive upper row

	srcNeeded  bool
	srcIdx     uint8
	geoNeeded  bool
	gx, gy, r2 float64
}

// whole reports that no per-row predicate applies inside [idx, hi).
func (c *planCursor) whole() bool { return !c.srcNeeded && !c.geoNeeded }

// seek advances idx to the next row in [idx, hi) that passes the residual
// predicates, or to hi. It is the only place a residual predicate is
// evaluated: each predicate shape has its own loop over column slices cut
// to hi, with the query constants in locals. The spatial test is written
// !(d > r2) so that a NaN distance matches, as in Query.Matches.
func (c *planCursor) seek() {
	i, hi := c.idx, c.hi
	switch {
	case c.srcNeeded && c.geoNeeded:
		src, xs, ys := c.cols.src[:hi], c.cols.x[:hi], c.cols.y[:hi]
		want, gx, gy, r2 := c.srcIdx, c.gx, c.gy, c.r2
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
		gx, gy, r2 := c.gx, c.gy, c.r2
		for ; i < len(xs); i++ {
			dx, dy := xs[i]-gx, ys[i]-gy
			if !(dx*dx+dy*dy > r2) {
				break
			}
		}
	}
	c.idx = i
}

// plan is a compiled query: the surviving cursors plus bookkeeping.
type plan struct {
	q     Query
	curs  []planCursor
	stats PlanStats
}

// atRange binary-searches the sorted At column for the query window
// (to <= 0 unbounded above, matching Query.Matches).
func atRange(at []int64, from, to time.Duration) (lo, hi int) {
	lo = sort.Search(len(at), func(i int) bool { return at[i] >= int64(from) })
	hi = len(at)
	if to > 0 {
		hi = lo + sort.Search(len(at)-lo, func(i int) bool { return at[lo+i] > int64(to) })
	}
	return lo, hi
}

// addCursor appends a cursor over cols (zone map zm when sealed) with the
// residual predicates q needs, or drops it when the range is empty.
func (p *plan) addCursor(cols *segCols, zm *ZoneMap) {
	lo, hi := atRange(cols.at, p.q.From, p.q.To)
	if lo >= hi {
		return
	}
	c := planCursor{cols: cols, zm: zm, idx: lo, hi: hi}
	if p.q.Source != "" {
		// The window rows all share the segment dictionary; a
		// single-entry dictionary proves the predicate row-free.
		found := false
		for i, s := range cols.dict {
			if s == p.q.Source {
				c.srcIdx = uint8(i)
				found = true
				break
			}
		}
		if !found {
			return // no row can match (memtable cursors lack zone-map pruning)
		}
		c.srcNeeded = len(cols.dict) > 1
	}
	if p.q.Radius > 0 {
		c.gx, c.gy, c.r2 = p.q.X, p.q.Y, p.q.Radius*p.q.Radius
		c.geoNeeded = zm == nil || !zm.ContainsCircle(p.q.X, p.q.Y, p.q.Radius)
	}
	c.seek()
	p.stats.RowsScanned += hi - lo
	if zm == nil {
		p.stats.MemRows += hi - lo
	}
	p.curs = append(p.curs, c)
}

// compilePlan prunes segs through their zone maps, loads the candidates,
// and builds cursors; mem is the memtable snapshot (nil when empty).
func compilePlan(q Query, segs []*segment, mem *segCols) (*plan, error) {
	p := &plan{q: q}
	p.stats.Segments = len(segs)
	for _, sg := range segs {
		zm := &sg.zm
		if !zm.OverlapsWindow(q.From, q.To) ||
			(q.Source != "" && !zm.HasSource(q.Source)) ||
			(q.Radius > 0 && !zm.IntersectsCircle(q.X, q.Y, q.Radius)) {
			p.stats.Pruned++
			continue
		}
		p.stats.Candidates++
		cols, err := sg.load()
		if err != nil {
			return nil, err
		}
		p.addCursor(cols, zm)
	}
	if mem != nil && mem.rows() > 0 {
		p.addCursor(mem, nil)
	}
	return p, nil
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
// other predicate-free cursor folds its column slice; a predicated cursor
// folds the rows seek stops on.
func (p *plan) aggregate(col Column) Agg {
	var a Agg
	for i := range p.curs {
		c := &p.curs[i]
		switch {
		case c.zm != nil && c.whole() && c.idx == 0 && c.hi == c.cols.rows():
			zoneAgg(&a, c.zm, col)
		case c.whole():
			foldColumn(&a, c.cols, col, c.idx, c.hi)
		default:
			for c.idx < c.hi {
				a.fold(colValue(c.cols, col, c.idx))
				c.idx++
				c.seek()
			}
		}
	}
	if a.Count > 0 {
		a.Mean = a.Sum / float64(a.Count)
	}
	return a
}
