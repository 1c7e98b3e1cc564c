package telemetry

import "testing"

// BenchmarkFamilyGet measures a bump of a counter keyed at run time (the
// `offload.execution.<kind>` pattern) through a warm Family: one map
// lookup and one CAS, no name built and no registry lock.
func BenchmarkFamilyGet(b *testing.B) {
	r := NewRegistry()
	f := r.Family("offload.execution.", "")
	kinds := [...]string{"rsu", "cloud", "neighbor-vehicle"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Get(kinds[i%3]).Inc()
	}
}

// BenchmarkCounterHandleAdd measures the interned-handle counter bump the
// hot emitters use: one lock-free CAS, no registry lock, no name hash.
func BenchmarkCounterHandleAdd(b *testing.B) {
	r := NewRegistry()
	c := r.CounterHandle("offload.executions")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// benchSamples is how many samples a histogram benchmark puts into one
// histogram before starting a fresh one: a fleet run's histograms hold a
// few thousand each, so each value's first sighting, which adds a bin,
// stays part of the measurement.
const benchSamples = 4096

// BenchmarkHistogramHandleObserve measures the interned-handle histogram
// sample: only the histogram's own lock is taken.
func BenchmarkHistogramHandleObserve(b *testing.B) {
	var h *HistogramHandle
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%benchSamples == 0 {
			h = NewRegistry().HistogramHandle("offload.total_ms")
		}
		h.Observe(float64(i % 97))
	}
}

// BenchmarkRegistryMergeLanes measures a fleet's merged view after warm-up:
// 1 000 lane registries, each with four histograms of 8 samples over a few
// shared values and two counters, merged into a fresh registry and
// rendered, as MergedTelemetry and Render do.
func BenchmarkRegistryMergeLanes(b *testing.B) {
	lanes := make([]*Registry, 1000)
	for i := range lanes {
		lanes[i] = NewRegistry()
		for k := 0; k < 8; k++ {
			for j, name := range [...]string{"a_ms", "b_ms", "c_ms", "d_ms"} {
				lanes[i].HistogramHandle(name).Observe(float64((i + k*j) % (3 + 5*j)))
			}
		}
		lanes[i].CounterHandle("calls").Add(8)
		lanes[i].CounterHandle("errors").Add(float64(i % 2))
	}
	merge := func() string {
		dst := NewRegistry()
		for _, lane := range lanes {
			dst.Merge(lane)
		}
		return dst.Render()
	}
	merge()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge()
	}
}
