package obs

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// vehicleCounters and vehicleHists are the metrics one vehicle lane of a
// fleet_chaos-shaped fleet interns (offload, network, edge, cloud, EdgeOSv).
// Names starting with "-" are resolved but never bumped, as some are in a
// real lane.
var (
	vehicleCounters = [...]string{
		"network.transfers", "network.bytes_up", "network.bytes_down",
		"-offload.decisions", "-offload.decision.none", "offload.failures",
		"offload.executions", "offload.bytes_sent", "offload.retries",
		"offload.breaker.skips", "offload.breaker.opened", "offload.resilient.success",
		"-offload.resilient.exhausted", "offload.fallbacks", "-offload.degraded",
		"xedge.submits", "-cloud.submits", "offload.execution.onboard",
		"edgeos.invocations", "edgeos.service.kidnapper-search.invocations",
		"edgeos.pipeline.onboard", "edgeos.deadline_hits",
		"network.path.vehicle-rsu.transfers", "network.path.vehicle-rsu.bytes",
		"offload.execution.rsu", "edgeos.pipeline.split-1", "offload.failure.rsu-0",
		"edgeos.pipeline.split-2", "offload.breaker.open.rsu-0",
		"network.path.vehicle-cloud.transfers", "network.path.vehicle-cloud.bytes",
		"offload.failure.cloud", "offload.breaker.open.cloud", "edgeos.fallbacks",
		"offload.breaker.skip.rsu-0", "offload.breaker.skip.cloud",
	}
	vehicleHists = [...]string{
		"network.transfer_ms", "network.loss", "-offload.candidates",
		"offload.total_ms", "offload.uplink_ms", "offload.downlink_ms",
		"offload.backoff_ms", "xedge.exec_ms", "xedge.queue_wait_ms",
		"-cloud.exec_ms", "-cloud.queue_wait_ms", "edgeos.invoke_ms", "edgeos.energy_j",
	}
)

// BenchmarkSamplerTick measures one sampler tick over 1 000 vehicle lanes
// plus a fault-injector lane of 16 sites, the lane set a fleet_chaos run
// watches. Before each tick one vehicle interns a counter it does not bump
// yet, the way a vehicle meets a new site mid-run.
func BenchmarkSamplerTick(b *testing.B) {
	injector := telemetry.NewRegistry()
	for s := 0; s < 16; s++ {
		for _, m := range []string{"faults.outage.", "faults.outage_rejects.", "faults.exec_faults."} {
			injector.CounterHandle(m + "rsu-" + strconv.Itoa(s)).Add(1)
		}
	}
	sp := NewSampler(NewSeriesStore(0), 0)
	sp.Watch(injector)
	lanes := make([]*telemetry.Registry, 1000)
	for v := range lanes {
		reg := telemetry.NewRegistry()
		lanes[v] = reg
		for i, name := range vehicleCounters {
			if name[0] == '-' {
				reg.CounterHandle(name[1:])
				continue
			}
			reg.CounterHandle(name).Add(float64(v + i))
		}
		for i, name := range vehicleHists {
			if name[0] == '-' {
				reg.HistogramHandle(name[1:])
				continue
			}
			for k := 0; k < 4; k++ {
				reg.HistogramHandle(name).Observe(float64(v+i+k) / 3)
			}
		}
		sp.Watch(reg)
	}
	sp.SampleAt(0) // first sight of every lane and series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		lanes[i%len(lanes)].CounterHandle("offload.breaker.skip.site-" + strconv.Itoa(i))
		sp.SampleAt(time.Duration(i) * sp.interval)
	}
}

// offRecorder is a nil recorder the compiler cannot see is nil, as a
// component's scope field is; a local nil would let it delete the call.
var offRecorder *Recorder

// BenchmarkDisabledEventWithAttrs measures an unguarded emission site on a
// nil recorder (a zero Scope) with attributes of several kinds, the event
// twin of trace's BenchmarkDisabledSpanWithAttrs.
func BenchmarkDisabledEventWithAttrs(b *testing.B) {
	rec := offRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Emit(time.Duration(i), "offload", SevWarn, "resilient.degraded",
			trace.String("dag", "alpr"), trace.Int("attempts", i%4), trace.F64("factor", 0.55))
	}
}
