package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file is the reference for Histogram's bins: the keep-every-sample
// histogram the package shipped before, kept as it was apart from its
// names. TestHistogramMatchesSampleReference and FuzzHistogramMatchesSamples
// drive both with the same observations, merges and clones and require the
// same count, sum, min, max, quantiles and rendering.

// sampleHistogram keeps every sample it is given and answers quantile
// queries over them exactly.
type sampleHistogram struct {
	samples []float64
	count   int
	sum     float64
	min     float64
	max     float64
}

func (h *sampleHistogram) clone() *sampleHistogram {
	cp := *h
	cp.samples = append([]float64(nil), h.samples...)
	return &cp
}

func (h *sampleHistogram) merge(src *sampleHistogram) {
	if src == nil || src.count == 0 {
		return
	}
	if h.count == 0 || src.min < h.min {
		h.min = src.min
	}
	if h.count == 0 || src.max > h.max {
		h.max = src.max
	}
	h.count += src.count
	h.sum += src.sum
	h.samples = append(h.samples, src.samples...)
}

func (h *sampleHistogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.samples = append(h.samples, v)
}

func sampleQuantileOf(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func (h *sampleHistogram) Summary() HistogramSummary {
	if h.count == 0 {
		return HistogramSummary{}
	}
	sorted := append([]float64(nil), h.samples...)
	sort.Float64s(sorted)
	return HistogramSummary{
		Count:    h.count,
		Retained: len(h.samples),
		Sum:      h.sum,
		Mean:     h.sum / float64(h.count),
		Min:      h.min,
		P50:      sampleQuantileOf(sorted, 0.50),
		P90:      sampleQuantileOf(sorted, 0.90),
		P95:      sampleQuantileOf(sorted, 0.95),
		P99:      sampleQuantileOf(sorted, 0.99),
		Max:      h.max,
	}
}

// sampleRender is Registry.Render's histogram lines over reference
// histograms, sorted by name.
func sampleRender(hists map[string]*sampleHistogram) string {
	var b strings.Builder
	names := make([]string, 0, len(hists))
	for n, h := range hists {
		if h.count > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		s := hists[n].Summary()
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f\n",
			n, s.Count, s.Mean, s.P50, s.P95, s.Max)
	}
	return b.String()
}

// sameQuantile: quantiles are equal, or both NaN. Which of −0 and +0 a
// quantile returns is unspecified on both sides (sort.Float64s is not
// stable), so they count as equal.
func sameQuantile(a, b float64) bool { return a == b || (a != a && b != b) }

// sameBits: sum, mean, min and max are computed by the same operations in
// the same order on both sides, so they agree bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// summaryDiff describes how got differs from the reference's summary, or
// is empty when they agree.
func summaryDiff(got, want HistogramSummary) string {
	if got.Count != want.Count || got.Retained != want.Retained ||
		!sameBits(got.Sum, want.Sum) || !sameBits(got.Mean, want.Mean) ||
		!sameBits(got.Min, want.Min) || !sameBits(got.Max, want.Max) ||
		!sameQuantile(got.P50, want.P50) || !sameQuantile(got.P90, want.P90) ||
		!sameQuantile(got.P95, want.P95) || !sameQuantile(got.P99, want.P99) {
		return fmt.Sprintf("got %+v, want %+v", got, want)
	}
	return ""
}

// checkHistogram compares a histogram's read methods with its reference.
func checkHistogram(t testing.TB, what string, h *Histogram, ref *sampleHistogram) {
	t.Helper()
	want := ref.Summary()
	if d := summaryDiff(h.Summary(), want); d != "" {
		t.Fatalf("%s: summary %s", what, d)
	}
	if h.Count() != ref.count || !sameBits(h.sum, ref.sum) || !sameBits(h.Mean(), want.Mean) {
		t.Fatalf("%s: count/sum/mean %d/%v/%v, want %d/%v/%v", what, h.Count(), h.sum, h.Mean(),
			ref.count, ref.sum, want.Mean)
	}
	if ref.count == 0 {
		return
	}
	if !sameBits(h.min, ref.min) || !sameBits(h.max, ref.max) {
		t.Fatalf("%s: min/max %v/%v, want %v/%v", what, h.min, h.max, ref.min, ref.max)
	}
	sorted := append([]float64(nil), ref.samples...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := h.compacted().quantile(q), sampleQuantileOf(sorted, q); !sameQuantile(got, want) {
			t.Fatalf("%s: quantile(%v) = %v, want %v", what, q, got, want)
		}
	}
}

// checkRegistry compares a registry's Snapshot and Render with the
// reference histograms it should hold.
func checkRegistry(t testing.TB, what string, r *Registry, refs map[string]*sampleHistogram) {
	t.Helper()
	snap := r.Snapshot()
	for n, ref := range refs {
		s, ok := snap.Histograms[n]
		if ok != (ref.count > 0) {
			t.Fatalf("%s: histogram %s in snapshot %v with %d samples", what, n, ok, ref.count)
		}
		if d := summaryDiff(s, ref.Summary()); d != "" {
			t.Fatalf("%s: snapshot of %s: %s", what, n, d)
		}
	}
	unsigned := strings.NewReplacer("-0.00", "0.00")
	if got, want := unsigned.Replace(r.Render()), unsigned.Replace(sampleRender(refs)); got != want {
		t.Fatalf("%s: render\n%s\nwant\n%s", what, got, want)
	}
}

// histValues are the values a program names by a byte below 128: repeats,
// both zeros, NaN, both infinities and the extremes of float64.
var histValues = [...]float64{0, math.Copysign(0, -1), 1, -1, 2.5, 0.1, 1e9, -1e-9,
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, -math.MaxFloat64, 42, 7}

// histNames are the histograms each registry of a program holds.
var histNames = [2]string{"h_ms", "g_ms"}

// runHistogramProgram interprets prog against two registries and a loose
// Histogram, each with reference twins, and compares them with their
// twins after every copy or merge and at the end. An op byte's low three bits pick
// the operation, bit 3 a registry and bit 4 a histogram name; a value is
// one byte (below 128 from histValues, below 248 one of 120 multiples of
// 0.25) or 0xf8 and up followed by eight bytes of float64 bits.
func runHistogramProgram(t testing.TB, prog []byte) {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	value := func() float64 {
		switch b := next(); {
		case b < 128:
			return histValues[int(b)%len(histValues)]
		case b < 248:
			return float64(b-128) * 0.25
		default:
			var bits uint64
			for i := 0; i < 8; i++ {
				bits = bits<<8 | uint64(next())
			}
			return math.Float64frombits(bits)
		}
	}
	regs := [2]*Registry{NewRegistry(), NewRegistry()}
	refs := [2]map[string]*sampleHistogram{{}, {}}
	for r := range refs {
		for _, n := range histNames {
			refs[r][n] = &sampleHistogram{}
		}
	}
	loose, looseRef := &Histogram{}, &sampleHistogram{}
	for len(prog) > 0 {
		op := next()
		r, name := int(op>>3&1), histNames[op>>4&1]
		switch op & 7 {
		case 1: // a run of one value: duplicates
			v, k := value(), 1+int(next()%32)
			for i := 0; i < k; i++ {
				regs[r].HistogramHandle(name).Observe(v)
				refs[r][name].Observe(v)
			}
		case 2: // merge the other registry in, then start it over (a lane
			// merging into a fleet view), so samples grow linearly
			regs[r].Merge(regs[1-r])
			regs[1-r] = NewRegistry()
			for _, n := range histNames {
				refs[r][n].merge(refs[1-r][n])
				refs[1-r][n] = &sampleHistogram{}
			}
		case 3: // a registry's copy, read and then observed into on its own
			c, ref := regs[r].Histogram(name), refs[r][name].clone()
			if c == nil {
				if ref.count != 0 {
					t.Fatalf("Histogram(%s) nil with %d samples", name, ref.count)
				}
				continue
			}
			checkHistogram(t, "clone", c, ref)
			v := value()
			c.Observe(v)
			ref.Observe(v)
			checkHistogram(t, "observed clone", c, ref)
		case 4: // a histogram no registry compacts, read with a pending tail
			v := value()
			loose.Observe(v)
			looseRef.Observe(v)
		case 5:
			loose.merge(regs[r].Histogram(name))
			looseRef.merge(refs[r][name])
			checkHistogram(t, "loose merge", loose, looseRef)
		default:
			v := value()
			regs[r].HistogramHandle(name).Observe(v)
			refs[r][name].Observe(v)
		}
	}
	for r := range regs {
		checkRegistry(t, fmt.Sprintf("registry %d", r), regs[r], refs[r])
	}
	checkHistogram(t, "loose at end", loose, looseRef)
}

// TestHistogramMatchesSampleReference runs seeded random programs, mostly
// observations over a few hundred distinct values with some raw float64
// bits, so histograms compact many times between reads.
func TestHistogramMatchesSampleReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var prog []byte
		for len(prog) < 4000 {
			op := byte(rng.Intn(32)) &^ 7
			switch p := rng.Intn(100); {
			case p < 2:
				op |= 2 // merge
			case p < 4:
				op |= 3 // clone
			case p < 6:
				op |= 5 // loose merge
			case p < 16:
				op |= 4 // loose observe
			case p < 26:
				op |= 1 // run
			}
			prog = append(prog, op)
			switch op & 7 {
			case 0, 1, 3, 4, 6, 7:
				v := byte(rng.Intn(256))
				prog = append(prog, v)
				if v >= 248 {
					for i := 0; i < 8; i++ {
						prog = append(prog, byte(rng.Intn(256)))
					}
				}
				if op&7 == 1 {
					prog = append(prog, byte(rng.Intn(256)))
				}
			}
		}
		runHistogramProgram(t, prog)
	}
}

// FuzzHistogramMatchesSamples runs arbitrary programs (runHistogramProgram's
// encoding) against the reference.
func FuzzHistogramMatchesSamples(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 129, 0, 8, 1, 2, 0x10, 3, 4, 8, 5, 2})
	f.Add([]byte{1, 0, 9, 1, 1, 9, 0x18, 8, 0x18, 9, 0x18, 10, 2, 3, 0, 0x0b, 0x10, 13})
	f.Add([]byte{0, 0xf8, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 4, 0xff, 0x80, 0, 0, 0, 0, 0, 0, 0, 5, 3})
	prog := []byte{}
	for i := 0; i < 200; i++ {
		prog = append(prog, byte(i&0x18), byte(128+i%97))
	}
	f.Add(append(prog, 2, 0x0a, 0x1b, 0x1d, 0x0c, 200))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runHistogramProgram(t, prog)
	})
}
