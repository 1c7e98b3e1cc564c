package ddi

import "time"

// ZoneMap summarizes one sealed segment: per-column min/max bounds, the
// set of sources present, and pre-aggregated sums. The query planner reads
// only zone maps to decide which segments a query can skip entirely — a
// pruned segment is never read from disk, let alone decoded — and the
// aggregate fast path answers count/min/max/mean for fully-covered
// segments straight from the map.
type ZoneMap struct {
	// Count is the number of records in the segment.
	Count int `json:"count"`
	// MinAt/MaxAt bound the capture-time column.
	MinAt time.Duration `json:"minAt"`
	MaxAt time.Duration `json:"maxAt"`
	// MinID/MaxID bound the record-ID column.
	MinID uint64 `json:"minId"`
	MaxID uint64 `json:"maxId"`
	// MinX/MaxX/MinY/MaxY is the spatial bounding box.
	MinX float64 `json:"minX"`
	MaxX float64 `json:"maxX"`
	MinY float64 `json:"minY"`
	MaxY float64 `json:"maxY"`
	// Sources doubles as the segment's source dictionary: the set of
	// distinct sources, in first-appearance order of the sealed rows.
	Sources []Source `json:"sources"`
	// SumX/SumY/SumAt/SumPayload pre-aggregate the columns (payload in
	// bytes), letting fully-covered aggregate queries skip the decode.
	SumX       float64 `json:"sumX"`
	SumY       float64 `json:"sumY"`
	SumAt      float64 `json:"sumAt"`
	SumPayload float64 `json:"sumPayload"`
	// MinPayload/MaxPayload bound the payload-size column.
	MinPayload int `json:"minPayload"`
	MaxPayload int `json:"maxPayload"`
}

// OverlapsWindow reports whether any record time in [MinAt, MaxAt] can
// satisfy the query window (to <= 0 means unbounded above, matching
// Query.Matches).
func (z *ZoneMap) OverlapsWindow(from, to time.Duration) bool {
	if z.MaxAt < from {
		return false
	}
	if to > 0 && z.MinAt > to {
		return false
	}
	return true
}

// HasSource reports whether the segment holds any record from s.
func (z *ZoneMap) HasSource(s Source) bool {
	for _, have := range z.Sources {
		if have == s {
			return true
		}
	}
	return false
}

// IntersectsCircle reports whether the circle at (x, y) with radius r can
// touch the segment's bounding box — the standard closest-point test.
func (z *ZoneMap) IntersectsCircle(x, y, r float64) bool {
	cx := clampF(x, z.MinX, z.MaxX)
	cy := clampF(y, z.MinY, z.MaxY)
	dx, dy := x-cx, y-cy
	return dx*dx+dy*dy <= r*r
}

// ContainsCircle reports whether the bounding box lies entirely inside the
// circle at (x, y) with radius r — when true, a spatial filter cannot
// reject any row of the segment. The farthest box corner decides.
func (z *ZoneMap) ContainsCircle(x, y, r float64) bool {
	fx := maxF(absF(x-z.MinX), absF(x-z.MaxX))
	fy := maxF(absF(y-z.MinY), absF(y-z.MaxY))
	return fx*fx+fy*fy <= r*r
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
