package sim

import (
	"testing"
	"time"
)

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1000 == 999 {
			if err := e.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineEventLoop is the kernel event-loop microbenchmark:
// batches of out-of-order schedules drained through the engine, the shape
// every fleet experiment reduces to.
func BenchmarkEngineEventLoop(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Deterministic scatter: events land out of order within the batch.
		e.After(time.Duration((i*2654435761)%4096)*time.Microsecond, fn)
		if i%256 == 255 {
			if err := e.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineTimerChurn measures schedule-then-cancel churn (timeout
// guards that almost never fire).
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.After(time.Duration(i%128)*time.Millisecond, fn)
		e.Cancel(h)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(0, 1)
	}
}
