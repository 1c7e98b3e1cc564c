package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestSupportedTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {21, 50}, {40, 75}, {50, 80}, {99, 80}, {100, 90},
		{160, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := supportedTail(c.n)
		if got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 21 && samplesBeyond(c.n, got) < 10 {
			t.Errorf("supportedTail(%d) = %g leaves %d samples beyond it", c.n, got, samplesBeyond(c.n, got))
		}
	}
}

func TestSummariseReportsTailSupport(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[99-i] = float64(i + 1) // unsorted on purpose
	}
	l := summarise(ms, 90)
	if l.N != 100 || l.P50 != 50 || l.Tail != 90 || l.Beyond != 10 || !l.Supports || l.Max != 100 {
		t.Errorf("summarise(1..100, p90) = %+v", l)
	}
	if l := summarise(ms[:50], 99); l.Supports {
		t.Errorf("p99 of 50 samples has %d beyond it and must not count as supported", l.Beyond)
	}
}

// The spread must be the one Python's statistics.quantiles(vs, n=4) gives,
// because that is what the pipeline computes from the same runs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 4, 4, 4}, 4, 4},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
