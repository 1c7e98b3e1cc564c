package telemetry

import (
	"testing"
	"time"
)

// BenchmarkRegistryAdd measures the classic name-keyed counter bump — the
// path every hot emitter used before interned handles existed.
func BenchmarkRegistryAdd(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add("offload.executions", 1)
	}
}

// BenchmarkRegistryAddDynamicName measures a counter bump whose name is
// assembled per call (the `offload.execution.<kind>` pattern).
func BenchmarkRegistryAddDynamicName(b *testing.B) {
	r := NewRegistry()
	kinds := [...]string{"rsu", "cloud", "neighbor-vehicle"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add("offload.execution."+kinds[i%3], 1)
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
// histogram before starting a fresh one: histograms keep every sample, so
// b.N of them in one would measure the allocator, and a fleet run's
// histograms hold a few thousand each.
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

// BenchmarkRegistryObserve measures a name-keyed histogram sample.
func BenchmarkRegistryObserve(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%benchSamples == 0 {
			r = NewRegistry()
		}
		r.Observe("offload.total_ms", float64(i%97))
	}
}

// BenchmarkRegistryObserveDuration measures the duration-sample wrapper.
func BenchmarkRegistryObserveDuration(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%benchSamples == 0 {
			r = NewRegistry()
		}
		r.ObserveDuration("vcu.task_exec_ms", time.Duration(i%977)*time.Microsecond)
	}
}
