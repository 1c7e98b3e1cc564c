package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 80, 90, 95, 99, 99.9}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples:
// ceil(p/100 * n), computed so that 99.9% of 10000 is 9990 and not, by a
// rounding error, 9991.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// supportedTail is the percentile rule: the highest ladder percentile that
// still has at least ten samples beyond it, 50 when none has.
func supportedTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// latencies summarises one workload's latency samples (milliseconds) at its
// fixed tail percentile.
type latencies struct {
	N        int
	Min      float64
	P10      float64
	P25      float64
	P50      float64
	Tail     float64
	TailPct  float64
	Beyond   int     // samples beyond the tail percentile
	Max      float64 // worst sample
	Supports bool    // Beyond >= 10: the tail is the rule's percentile or lower
}

// summarise sorts ms in place and reads the median and the tailPct-th
// percentile by nearest rank.
func summarise(ms []float64, tailPct float64) latencies {
	sort.Float64s(ms)
	l := latencies{N: len(ms), TailPct: tailPct}
	if len(ms) == 0 {
		return l
	}
	l.Min, l.P10, l.P25 = ms[0], percentile(ms, 10), percentile(ms, 25)
	l.P50 = percentile(ms, 50)
	l.Tail = percentile(ms, tailPct)
	l.Beyond = samplesBeyond(len(ms), tailPct)
	l.Max = ms[len(ms)-1]
	l.Supports = l.Beyond >= 10
	return l
}

// median of vs (not modified); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is what the
// pipeline that consumes BENCHMARK.json uses for its spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: it may be negative or exceed 4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs(q3-q1) / math.Abs(m)
}
