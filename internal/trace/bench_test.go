package trace

import (
	"testing"
	"time"
)

// BenchmarkDisabledSpanWithAttrs measures what an instrumented call site
// costs when tracing is off (nil tracer) but attributes are still built.
func BenchmarkDisabledSpanWithAttrs(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.StartSpanAt("offload", "offload.estimate", 0,
			String("dag", "alpr"), Int("split", i%4), F64("bytes", 1024.5))
		s.FinishAt(time.Duration(i))
	}
}

// BenchmarkDisabledSpanGuarded measures the same call site behind the
// Enabled() guard — the pattern the hot paths use, costing ~0.
func BenchmarkDisabledSpanGuarded(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			s := tr.StartSpanAt("offload", "offload.estimate", 0,
				String("dag", "alpr"), Int("split", i%4), F64("bytes", 1024.5))
			s.FinishAt(time.Duration(i))
		}
	}
}

// BenchmarkSpanStartFinish measures an enabled root span's lifecycle. A
// fresh tracer takes over periodically so the span cap never engages.
func BenchmarkSpanStartFinish(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%65536 == 0 {
			tr = New()
		}
		s := tr.StartSpanAt("offload", "offload.execute", time.Duration(i))
		s.FinishAt(time.Duration(i + 1))
	}
}

// BenchmarkSpanAtLeaf measures the pre-bounded leaf-span fast path used by
// the offload execute loop.
func BenchmarkSpanAtLeaf(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%65536 == 0 {
			tr = New()
		}
		tr.SpanAt("network", "network.uplink", time.Duration(i), time.Duration(i+1))
	}
}
