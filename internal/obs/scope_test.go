package obs

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fullScope returns a scope with all four stores, empty.
func fullScope() Scope {
	return Scope{
		Metrics: telemetry.NewRegistry(),
		Tracer:  trace.New(),
		Events:  NewRecorder(0),
		Series:  NewSeriesStore(0),
	}
}

// renderScope renders all four stores; equal renders mean equal bytes on
// every surface the stores are read through.
func renderScope(sc Scope) string {
	return sc.Metrics.Render() + "\n--\n" + sc.Tracer.RenderTree() + "\n--\n" +
		sc.Events.RenderTable() + "\n--\n" + sc.Series.Render()
}

// randomLane fills a lane the way a vehicle would: metric names, event
// timestamps and series timestamps collide across lanes, so the merged
// bytes depend on merge order.
func randomLane(rng *sim.RNG) Scope {
	lane := fullScope()
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		at := time.Duration(rng.Intn(4)) * time.Millisecond
		lane.Metrics.CounterHandle("offload.executions").Add(rng.Float64())
		lane.Metrics.HistogramHandle("offload.total_ms").Observe(rng.Float64() * 100)
		lane.Metrics.CounterHandle("fleet.busy_s").Add(rng.Float64())
		root := lane.Tracer.StartSpanAt("edgeos", "edgeos.invoke", at, trace.Int("i", i))
		lane.Tracer.SpanAt("network", "network.uplink", at, at+time.Millisecond)
		root.FinishAt(at + 2*time.Millisecond)
		lane.Events.Emit(at, "offload", SevInfo, "breaker.open", trace.Int("i", rng.Intn(100)))
		lane.Series.RecordGauge("fleet.queue_depth_s", at, rng.Float64())
	}
	sp := NewSampler(lane.Series, 0)
	sp.Watch(lane.Metrics)
	sp.SampleAt(time.Duration(rng.Intn(3)) * time.Millisecond)
	return lane
}

// TestScopeMergeIsTheFourStoreMerges: merging lanes in index order through
// Scope.Merge gives what the four store merges give, and merging a zero
// scope, or a scope into itself, changes nothing.
func TestScopeMergeIsTheFourStoreMerges(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		lanes := make([]Scope, 2+rng.Intn(6))
		for i := range lanes {
			lanes[i] = randomLane(rng)
			// Past the first, a lane now and then lacks a store, the way a
			// run without -trace or without a flight recorder leaves it out.
			if i > 0 && rng.Bernoulli(0.3) {
				lanes[i].Tracer, lanes[i].Events = nil, nil
			}
			if i > 0 && rng.Bernoulli(0.3) {
				lanes[i].Metrics, lanes[i].Series = nil, nil
			}
		}
		got, want := fullScope(), fullScope()
		for _, lane := range lanes {
			got.Merge(lane)
			want.Metrics.Merge(lane.Metrics)
			want.Tracer.Merge(lane.Tracer)
			want.Events.Merge(lane.Events)
			want.Series.Merge(lane.Series)
		}
		merged := renderScope(got)
		if merged != renderScope(want) {
			t.Fatalf("seed %d: Scope.Merge diverged from the store merges:\n%s\nvs\n%s", seed, merged, renderScope(want))
		}
		if got.Tracer.SpanCount() == 0 || got.Events.Len() == 0 || len(got.Series.m) == 0 {
			t.Fatalf("seed %d: lanes merged to nothing:\n%s", seed, merged)
		}
		got.Merge(Scope{})
		got.Merge(got)
		Scope{}.Merge(got)
		if again := renderScope(got); again != merged {
			t.Fatalf("seed %d: zero- or self-merge changed the scope:\n%s\nvs\n%s", seed, again, merged)
		}
	}
}

// TestZeroScopeRecordsNothingAndAllocatesNothing: a component instrumented
// with the zero Scope resolves nil handles, and emitting through every one
// of them, unguarded and with attributes of every kind — counter,
// histogram, span, event, gauge point — is free.
func TestZeroScopeRecordsNothingAndAllocatesNothing(t *testing.T) {
	var sc Scope
	counter := sc.Metrics.CounterHandle("offload.executions")
	hist := sc.Metrics.HistogramHandle("offload.total_ms")
	allocs := testing.AllocsPerRun(100, func() {
		counter.Inc()
		counter.Add(2.5)
		hist.Observe(12)
		hist.ObserveDuration(time.Millisecond)
		span := sc.Tracer.StartSpanAt("offload", "offload.execute", time.Second, trace.String("dag", "alpr"))
		sc.Tracer.SpanAt("network", "network.uplink", 0, 1, trace.F64("bytes", 2048))
		span.SetAttr(trace.Bool("feasible", true), trace.Dur("total", time.Second))
		span.FinishAt(2 * time.Second)
		sc.Events.Emit(time.Second, "offload", SevWarn, "resilient.degraded",
			trace.Int("attempts", 3), trace.F64("factor", 0.55), trace.Dur("length", time.Second),
			trace.Bool("degraded", true), trace.String("dest", "rsu-0"), trace.String("reason", ""))
		sc.Events.Emit(time.Second, "fleet", SevDebug, "commit.begin")
		sc.Series.RecordGauge("fleet.queue_depth_s", time.Second, 1)
	})
	if allocs != 0 {
		t.Fatalf("emitting through a zero Scope allocated %v objects per run, want 0", allocs)
	}
	if counter.Value() != 0 || sc.Tracer.SpanCount() != 0 || sc.Events.Len() != 0 || len(sc.Series.Payload(-1).Series) != 0 {
		t.Fatal("a zero Scope recorded something")
	}
	if c, _ := hist.CountSum(); c != 0 {
		t.Fatalf("nil histogram handle counted %d samples", c)
	}
}
