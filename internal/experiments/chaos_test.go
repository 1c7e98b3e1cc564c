package experiments

import (
	"testing"

	"repro/internal/runner"
)

func smallChaos(parallel int) runner.Config {
	return runner.Config{Replications: 3, Parallel: parallel, Seed: 42}
}

// TestChaosResilienceBeatsBaseline is E14's headline claim: at every
// outage intensity, the deadline hit-rate with the resilience policy on
// strictly exceeds the policy-off baseline — on the identical worlds and
// fault plans (cells are paired by seed).
func TestChaosResilienceBeatsBaseline(t *testing.T) {
	res, err := RunChaosSweep(smallChaos(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2*len(chaosIntensities) {
		t.Fatalf("rows = %d, want %d intensities x 2 policies", len(res.Results), len(chaosIntensities))
	}
	for i := 0; i < len(res.Results); i += 2 {
		off, on := res.Results[i], res.Results[i+1]
		if off.Resilience || !on.Resilience {
			t.Fatalf("row order broken: %+v %+v", off, on)
		}
		if off.Intensity != on.Intensity {
			t.Fatalf("unpaired intensities: %v vs %v", off.Intensity, on.Intensity)
		}
		// Paired worlds: both cells must have compiled the same fault plans.
		if off.FaultEvents != on.FaultEvents || off.FaultEvents == 0 {
			t.Fatalf("fault plans differ across policies: %d vs %d", off.FaultEvents, on.FaultEvents)
		}
		if off.Failures == 0 {
			t.Fatalf("intensity %v injected no failures into the baseline", off.Intensity)
		}
		if on.HitRate <= off.HitRate {
			t.Fatalf("intensity %v: resilient hit-rate %.3f not above baseline %.3f",
				on.Intensity, on.HitRate, off.HitRate)
		}
		if on.Fallbacks == 0 {
			t.Fatalf("intensity %v: policy on but no fallbacks recorded", on.Intensity)
		}
	}
	// The resilience machinery shows up in the merged telemetry.
	snap := res.Obs.Metrics.Snapshot()
	if snap.Counters["faults.site_down"] == 0 {
		t.Fatal("no outage telemetry in merged metrics")
	}
	if snap.Counters["offload.retries"]+snap.Counters["offload.breaker.skips"]+
		snap.Counters["offload.fallbacks"] == 0 {
		t.Fatal("no resilience telemetry in merged metrics")
	}
}

// TestChaosDeterministicAcrossParallelism: the merged report (rows and
// rendered metrics) is byte-identical at any worker-pool size.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	seq, err := RunChaosSweep(smallChaos(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunChaosSweep(smallChaos(4))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ChaosTable(par).String(), ChaosTable(seq).String(); got != want {
		t.Fatalf("tables diverge across parallelism:\n%s\nvs\n%s", got, want)
	}
	if got, want := par.Obs.Metrics.Render(), seq.Obs.Metrics.Render(); got != want {
		t.Fatal("merged metrics diverge across parallelism")
	}
	if par.Obs.Tracer.SpanCount() != seq.Obs.Tracer.SpanCount() {
		t.Fatalf("span counts diverge: %d vs %d", par.Obs.Tracer.SpanCount(), seq.Obs.Tracer.SpanCount())
	}
}

// TestCompileChaosPlanDeterministic pins the `make determinism` contract:
// the compiled E19 plan must be byte-identical at any -parallel level.
func TestCompileChaosPlanDeterministic(t *testing.T) {
	p1, err := CompileChaosPlan(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := CompileChaosPlan(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Describe() != p4.Describe() {
		t.Fatal("chaos plan text diverged across -parallel levels")
	}
	if p1.Digest() != p4.Digest() {
		t.Fatalf("chaos plan digest diverged: %s vs %s", p1.Digest(), p4.Digest())
	}
}
