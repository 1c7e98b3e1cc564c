package trace

import (
	"testing"
	"time"
)

// offTracer is a nil tracer the compiler cannot see is nil, as a
// component's scope field is; a local nil would let it delete the call.
var offTracer *Tracer

// BenchmarkDisabledSpanWithAttrs measures what an instrumented call site
// costs when tracing is off (nil tracer) but attributes are still built.
func BenchmarkDisabledSpanWithAttrs(b *testing.B) {
	tr := offTracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.StartSpanAt("offload", "offload.estimate", 0,
			String("dag", "alpr"), Int("split", i%4), F64("bytes", 1024.5))
		s.FinishAt(time.Duration(i))
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
