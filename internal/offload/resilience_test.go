package offload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xedge"
)

// alwaysFail injects a permanent fault and counts hook invocations.
func alwaysFail(calls *int) xedge.FaultFunc {
	return func(now time.Duration) error {
		*calls++
		return fmt.Errorf("injected permanent fault")
	}
}

// failUntil injects a transient fault that clears at virtual time until.
func failUntil(until time.Duration, calls *int) xedge.FaultFunc {
	return func(now time.Duration) error {
		*calls++
		if now < until {
			return fmt.Errorf("injected transient fault at %v", now)
		}
		return nil
	}
}

// TestExecuteFailureCounters is the regression test for the
// success-only metrics gap: the error path of Execute must record
// offload.failures and per-destination offload.failure.<dest> counters,
// mirroring offload.executions / offload.execution.<kind>.
func TestExecuteFailureCounters(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	reg := telemetry.NewRegistry()
	eng.Instrument(obs.Scope{Metrics: reg, Tracer: trace.New()})
	dag := tasks.ALPR()
	est := eng.EstimateSite(dag, rsu, 0, 0)
	if !est.Feasible {
		t.Fatalf("estimate infeasible: %s", est.Reason)
	}
	calls := 0
	rsu.SetFaultInjector(alwaysFail(&calls))
	if _, err := eng.Execute(dag, est, 0); err == nil {
		t.Fatal("faulted execute succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["offload.failures"]; got != 1 {
		t.Fatalf("offload.failures = %v, want 1", got)
	}
	if got := snap.Counters["offload.failure."+rsu.Name()]; got != 1 {
		t.Fatalf("offload.failure.%s = %v, want 1", rsu.Name(), got)
	}
	if got := snap.Counters["offload.executions"]; got != 0 {
		t.Fatalf("failed execute counted as execution (%v)", got)
	}
	// Success path stays intact and does not touch the failure counters.
	rsu.SetFaultInjector(nil)
	if _, err := eng.Execute(dag, est, 0); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if snap.Counters["offload.failures"] != 1 || snap.Counters["offload.executions"] != 1 {
		t.Fatalf("counters after recovery: %+v", snap.Counters)
	}
}

// TestResilientRetriesPastTransientFault: deterministic backoff walks the
// virtual clock past a transient fault window and the original
// destination completes — no fallback.
func TestResilientRetriesPastTransientFault(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	reg := telemetry.NewRegistry()
	eng.Instrument(obs.Scope{Metrics: reg, Tracer: trace.New()})
	pol := Policy{MaxAttempts: 3}
	eng.SetResilience(&pol)
	calls := 0
	rsu.SetFaultInjector(failUntil(120*time.Millisecond, &calls)) // clears before attempt 3 at t=150ms
	dag := tasks.ALPR()
	est := eng.EstimateSite(dag, rsu, 0, 0)
	if !est.Feasible {
		t.Fatalf("estimate infeasible: %s", est.Reason)
	}
	done, out, err := eng.ExecuteResilient(dag, est, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dest != rsu.Name() || out.FellBackTo != "" {
		t.Fatalf("outcome fell back: %+v", out)
	}
	if out.Attempts != 3 || out.Retries != 2 {
		t.Fatalf("attempts/retries = %d/%d, want 3/2", out.Attempts, out.Retries)
	}
	if done <= 150*time.Millisecond {
		t.Fatalf("completion %v does not include backoff waits", done)
	}
	if got := reg.Counter("offload.retries"); got != 2 {
		t.Fatalf("offload.retries = %v, want 2", got)
	}
	if got := reg.Counter("offload.failures"); got != 2 {
		t.Fatalf("offload.failures = %v, want 2", got)
	}
}

// TestBreakerStopsHammeringFailedSite: once the per-site breaker opens,
// the engine stops submitting to the failed site entirely (the fault hook
// is not called again) and falls back to the next-best destination.
func TestBreakerStopsHammeringFailedSite(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	reg := telemetry.NewRegistry()
	eng.Instrument(obs.Scope{Metrics: reg, Tracer: trace.New()})
	pol := Policy{MaxAttempts: 5, BreakerThreshold: 2, BreakerCooldown: time.Hour}
	eng.SetResilience(&pol)
	calls := 0
	rsu.SetFaultInjector(alwaysFail(&calls))
	dag := tasks.ALPR()
	est := eng.EstimateSite(dag, rsu, 0, 0)
	done, out, err := eng.ExecuteResilient(dag, est, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("site probed %d times, want exactly BreakerThreshold=2 before the breaker opened", calls)
	}
	if b := eng.breakers[rsu.Name()]; b == nil || b.State(10*time.Millisecond) != BreakerOpen {
		t.Fatalf("breaker %v is not open", b)
	}
	if out.FellBackTo == "" || out.Fallbacks == 0 {
		t.Fatalf("no fallback recorded: %+v", out)
	}
	if done <= 0 {
		t.Fatal("fallback produced non-positive completion")
	}
	// A second invocation while the breaker is open must not admit any
	// traffic to the site: zero additional fault-hook calls.
	callsBefore := calls
	_, out2, err := eng.ExecuteResilient(dag, eng.EstimateSite(dag, rsu, 0, time.Second), time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if calls != callsBefore {
		t.Fatalf("open breaker admitted %d executions", calls-callsBefore)
	}
	if out2.BreakerSkips == 0 {
		t.Fatalf("breaker skip not recorded: %+v", out2)
	}
	if reg.Counter("offload.breaker.opened") != 1 {
		t.Fatalf("offload.breaker.opened = %v, want 1", reg.Counter("offload.breaker.opened"))
	}
	if reg.Counter("offload.breaker.skips") == 0 {
		t.Fatal("offload.breaker.skips not recorded")
	}
}

// TestResilientFallsBackOnboard: with every remote destination failing
// permanently, the ladder ends at the on-board DSF and still completes.
func TestResilientFallsBackOnboard(t *testing.T) {
	eng, rsu, cl := testWorld(t, 0)
	reg := telemetry.NewRegistry()
	eng.Instrument(obs.Scope{Metrics: reg, Tracer: trace.New()})
	pol := DefaultPolicy()
	pol.MaxAttempts = 1
	eng.SetResilience(&pol)
	calls := 0
	rsu.SetFaultInjector(alwaysFail(&calls))
	cl.SetFaultInjector(alwaysFail(&calls))
	dag := tasks.ALPR()
	est := eng.EstimateSite(dag, rsu, 0, 0)
	done, out, err := eng.ExecuteResilient(dag, est, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dest != OnboardName || out.FellBackTo != OnboardName {
		t.Fatalf("ladder did not end onboard: %+v", out)
	}
	if done <= 0 || out.Degraded {
		t.Fatalf("unexpected outcome: done=%v %+v", done, out)
	}
	if got := reg.Counter("offload.resilient.success"); got != 1 {
		t.Fatalf("offload.resilient.success = %v", got)
	}
}

// TestDegradedVariantMeetsDeadline: when even on-board execution would
// miss the deadline, the engine runs the compressed model variant and
// completes in time, reporting Degraded.
func TestDegradedVariantMeetsDeadline(t *testing.T) {
	eng, rsu, cl := testWorld(t, 0)
	eng.Instrument(obs.Scope{Metrics: telemetry.NewRegistry(), Tracer: trace.New()})
	pol := DefaultPolicy()
	pol.MaxAttempts = 1
	eng.SetResilience(&pol)
	calls := 0
	rsu.SetFaultInjector(alwaysFail(&calls))
	cl.SetFaultInjector(alwaysFail(&calls))
	heavy := &tasks.DAG{Name: "heavy-dnn", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}}
	full := eng.EstimateOnboard(heavy, 0)
	if !full.Feasible {
		t.Fatalf("onboard infeasible: %s", full.Reason)
	}
	deadline := full.Total * 3 / 4 // full model cannot make it; half model can
	est, _, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	done, out, err := eng.ExecuteResilient(heavy, est, 0, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatalf("degraded variant not used: %+v", out)
	}
	if !out.DeadlineMet || done > deadline {
		t.Fatalf("degraded run missed deadline: done=%v deadline=%v %+v", done, deadline, out)
	}
}

// TestResilientWithoutPolicyMatchesExecute: with no policy the resilient
// entry point is a transparent single attempt.
func TestResilientWithoutPolicyMatchesExecute(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	dag := tasks.ALPR()
	est := eng.EstimateSite(dag, rsu, 0, 0)
	done, out, err := eng.ExecuteResilient(dag, est, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts != 1 || out.Fallbacks != 0 || out.Dest != rsu.Name() {
		t.Fatalf("pass-through outcome: %+v", out)
	}
	if done <= 0 {
		t.Fatal("non-positive completion")
	}
	if eng.Resilience() != nil {
		t.Fatal("policy reported while disabled")
	}
}

func TestDegradedDAGScalesWithoutMutating(t *testing.T) {
	dag := tasks.ALPR()
	origGFLOP := dag.Tasks[1].GFLOP
	dd := DegradedDAG(dag, 0.5)
	if err := dd.Validate(); err != nil {
		t.Fatal(err)
	}
	if dag.Tasks[1].GFLOP != origGFLOP {
		t.Fatal("input DAG mutated")
	}
	if dd.Tasks[1].GFLOP != origGFLOP*0.5 {
		t.Fatalf("GFLOP not scaled: %v", dd.Tasks[1].GFLOP)
	}
	if dd.Name == dag.Name {
		t.Fatal("degraded DAG shares the original name")
	}
}

// TestPathAdjusterAppliesToEstimates: an injected loss spike on the RSU
// path must lengthen the estimated uplink.
func TestPathAdjusterAppliesToEstimates(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	dag := tasks.ALPR()
	base := eng.EstimateSite(dag, rsu, 0, 0)
	eng.SetPathAdjuster(func(dest string, p network.Path, now time.Duration) network.Path {
		adj := network.Path{Name: p.Name, Links: append([]network.LinkSpec(nil), p.Links...)}
		for i := range adj.Links {
			adj.Links[i].BaseLoss = 0.9
		}
		return adj
	})
	degraded := eng.EstimateSite(dag, rsu, 0, 0)
	if degraded.Uplink <= base.Uplink {
		t.Fatalf("loss spike did not lengthen uplink: %v -> %v", base.Uplink, degraded.Uplink)
	}
	eng.SetPathAdjuster(nil)
	restored := eng.EstimateSite(dag, rsu, 0, 0)
	if restored.Uplink != base.Uplink {
		t.Fatal("removing adjuster did not restore baseline")
	}
}
