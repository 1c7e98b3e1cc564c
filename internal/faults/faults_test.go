package faults

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xedge"
)

func testSites(t *testing.T) []*xedge.Site {
	t.Helper()
	rsu, err := xedge.NewRSU(geo.Station{ID: "rsu-0", Kind: geo.RSU, Pos: geo.Point{X: 100}, Radius: 50000})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := xedge.NewCloud()
	if err != nil {
		t.Fatal(err)
	}
	return []*xedge.Site{rsu, cl}
}

func densePlanConfig() PlanConfig {
	return PlanConfig{
		Horizon:             10 * time.Second,
		MeanTimeToOutage:    time.Second,
		MeanOutage:          500 * time.Millisecond,
		MeanTimeToDegrade:   time.Second,
		MeanDegrade:         time.Second,
		MeanTimeToExecFault: 500 * time.Millisecond,
		MeanExecFault:       300 * time.Millisecond,
	}
}

func TestNewPlanValidation(t *testing.T) {
	sites := testSites(t)
	rng := sim.NewStream(1, 0)
	if _, err := NewPlan(PlanConfig{}, rng, sites); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NewPlan(densePlanConfig(), nil, sites); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

// TestPlanDeterminism: a plan is a pure function of (config, stream):
// same (seed, stream) is byte-identical, different streams diverge.
func TestPlanDeterminism(t *testing.T) {
	a, err := NewPlan(densePlanConfig(), sim.NewStream(7, 3), testSites(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(densePlanConfig(), sim.NewStream(7, 3), testSites(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Describe() != b.Describe() {
		t.Fatal("identical seeds produced different plans")
	}
	c, err := NewPlan(densePlanConfig(), sim.NewStream(7, 4), testSites(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Describe() == c.Describe() {
		t.Fatal("different streams produced identical plans")
	}
	if a.EventCount() == 0 {
		t.Fatal("dense config produced no events")
	}
}

// TestWindowsWellFormed: per family, windows are sorted, non-overlapping,
// positive-length, and clipped to the horizon; worlds boot healthy.
func TestWindowsWellFormed(t *testing.T) {
	plan, err := NewPlan(densePlanConfig(), sim.NewStream(11, 0), testSites(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"rsu-0", "cloud"} {
		for _, ws := range [][]Window{plan.Outages(site), plan.Degrades(site), plan.ExecFaults(site)} {
			prevEnd := time.Duration(0)
			for i, w := range ws {
				if w.From <= 0 {
					t.Fatalf("%s window %d starts at boot (%v)", site, i, w.From)
				}
				if w.To <= w.From {
					t.Fatalf("%s window %d empty: %+v", site, i, w)
				}
				if w.From < prevEnd {
					t.Fatalf("%s window %d overlaps previous: %+v", site, i, w)
				}
				if w.To > plan.Config().Horizon {
					t.Fatalf("%s window %d exceeds horizon: %+v", site, i, w)
				}
				prevEnd = w.To
			}
		}
	}
}

// TestAdvanceToTogglesAvailability: outage boundaries crossed by
// AdvanceTo drive SetAvailable and the faults.* counters; time never
// rewinds.
func TestAdvanceToTogglesAvailability(t *testing.T) {
	sites := testSites(t)
	plan, err := NewPlan(densePlanConfig(), sim.NewStream(3, 0), sites)
	if err != nil {
		t.Fatal(err)
	}
	outages := plan.Outages("rsu-0")
	if len(outages) == 0 {
		t.Skip("seed produced no rsu outages")
	}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := trace.New()
	inj.Instrument(obs.Scope{Metrics: reg, Tracer: tr})

	w := outages[0]
	mid := w.From + (w.To-w.From)/2
	inj.AdvanceTo(mid)
	if sites[0].Available() {
		t.Fatalf("site up inside outage window %+v at %v", w, mid)
	}
	if reg.Counter("faults.site_down") == 0 || reg.Counter("faults.outage.rsu-0") == 0 {
		t.Fatal("outage counters not emitted")
	}
	// Rewind is a no-op.
	inj.AdvanceTo(0)
	if sites[0].Available() {
		t.Fatal("rewind resurrected the site")
	}
	inj.AdvanceTo(w.To)
	if !sites[0].Available() {
		t.Fatalf("site still down after window end %v", w.To)
	}
	if reg.Counter("faults.site_up") == 0 {
		t.Fatal("recovery counter not emitted")
	}
	if tr.SpanCount() == 0 {
		t.Fatal("no faults spans recorded")
	}
}

// TestSubmitFailsInsideFaultWindows: with the injector attached, a
// submission inside an exec-fault window fails while one in healthy time
// succeeds — and estimates are never affected.
func TestSubmitFailsInsideFaultWindows(t *testing.T) {
	sites := testSites(t)
	cfg := densePlanConfig()
	cfg.MeanTimeToOutage = 0 // isolate exec faults
	plan, err := NewPlan(cfg, sim.NewStream(9, 0), sites)
	if err != nil {
		t.Fatal(err)
	}
	execWins := plan.ExecFaults("rsu-0")
	if len(execWins) == 0 {
		t.Skip("seed produced no exec-fault windows")
	}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	inj.Instrument(obs.Scope{Metrics: reg})
	inj.Attach()

	w := execWins[0]
	mid := w.From + (w.To-w.From)/2
	if _, _, err := sites[0].Submit(mid, hardware.DNNInference, 10); err == nil {
		t.Fatalf("submit inside exec-fault window %+v succeeded", w)
	}
	if _, err := sites[0].EstimateExec(mid, hardware.DNNInference, 10); err != nil {
		t.Fatalf("estimate affected by exec fault: %v", err)
	}
	if _, _, err := sites[0].Submit(w.To, hardware.DNNInference, 10); err != nil {
		t.Fatalf("submit after window: %v", err)
	}
	if reg.Counter("faults.exec_faults") == 0 {
		t.Fatal("exec-fault counter not emitted")
	}
}

// TestAdjustPathDegradesInsideWindow: inside a degradation window the
// path loses bandwidth and gains loss; outside it is untouched; the
// input path is never mutated.
func TestAdjustPathDegradesInsideWindow(t *testing.T) {
	sites := testSites(t)
	plan, err := NewPlan(densePlanConfig(), sim.NewStream(13, 0), sites)
	if err != nil {
		t.Fatal(err)
	}
	wins := plan.Degrades("rsu-0")
	if len(wins) == 0 {
		t.Skip("seed produced no degradation windows")
	}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	p := sites[0].Access()
	origUp := p.Links[0].UpMbps
	w := wins[0]
	mid := w.From + (w.To-w.From)/2
	adj := inj.AdjustPath("rsu-0", p, mid)
	if adj.Links[0].UpMbps >= origUp {
		t.Fatalf("bandwidth not reduced: %v -> %v", origUp, adj.Links[0].UpMbps)
	}
	if adj.Links[0].BaseLoss <= p.Links[0].BaseLoss {
		t.Fatal("loss not raised")
	}
	if p.Links[0].UpMbps != origUp {
		t.Fatal("input path mutated")
	}
	clean := inj.AdjustPath("rsu-0", p, 0)
	if clean.Links[0].UpMbps != origUp {
		t.Fatal("healthy-time path degraded")
	}
	if unknown := inj.AdjustPath("ghost", p, mid); unknown.Links[0].UpMbps != origUp {
		t.Fatal("unknown destination degraded")
	}
}

// TestScheduleDrivesSimClock: registered kernel events toggle
// availability as the engine's virtual clock crosses outage boundaries.
func TestScheduleDrivesSimClock(t *testing.T) {
	sites := testSites(t)
	plan, err := NewPlan(densePlanConfig(), sim.NewStream(3, 0), sites)
	if err != nil {
		t.Fatal(err)
	}
	outages := plan.Outages("rsu-0")
	if len(outages) == 0 {
		t.Skip("seed produced no rsu outages")
	}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Schedule(nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	eng := sim.NewEngine(1)
	if err := inj.Schedule(eng); err != nil {
		t.Fatal(err)
	}
	w := outages[0]
	if err := eng.RunUntil(w.From + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sites[0].Available() {
		t.Fatalf("site up after clock crossed outage start %v", w.From)
	}
	if err := eng.RunUntil(w.To + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !sites[0].Available() {
		t.Fatalf("site down after clock crossed outage end %v", w.To)
	}
}

// TestEpochCursorEquivalence: the per-family window cursors advanced by
// AdvanceTo are a pure optimization — faultAt and AdjustPath answer
// exactly like a never-advanced (full-scan) injector at every probe
// time, including probes behind the epoch cursor, which fall back to the
// full scan.
func TestEpochCursorEquivalence(t *testing.T) {
	sitesA := testSites(t)
	sitesB := testSites(t)
	planA, err := NewPlan(densePlanConfig(), sim.NewStream(29, 0), sitesA)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := NewPlan(densePlanConfig(), sim.NewStream(29, 0), sitesB)
	if err != nil {
		t.Fatal(err)
	}
	cursored, err := NewInjector(planA)
	if err != nil {
		t.Fatal(err)
	}
	fullScan, err := NewInjector(planB)
	if err != nil {
		t.Fatal(err)
	}
	if planA.Describe() != planB.Describe() {
		t.Fatal("twin plans diverged")
	}
	horizon := planA.Config().Horizon
	access := sitesA[0].Access()
	step := 50 * time.Millisecond
	for epoch := time.Duration(0); epoch <= horizon; epoch += 200 * time.Millisecond {
		cursored.AdvanceTo(epoch) // fullScan never advances: cursors stay at 0
		for _, probe := range []time.Duration{epoch, epoch + step, epoch + 3*step, epoch - step} {
			if probe < 0 {
				continue
			}
			for _, site := range []string{"rsu-0", "cloud"} {
				gotErr := cursored.faultAt(site, probe)
				wantErr := fullScan.faultAt(site, probe)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("faultAt(%s, %v) diverged after AdvanceTo(%v): cursored=%v fullscan=%v",
						site, probe, epoch, gotErr, wantErr)
				}
				got := cursored.AdjustPath(site, access, probe)
				want := fullScan.AdjustPath(site, access, probe)
				if got.Links[0].UpMbps != want.Links[0].UpMbps || got.Links[0].BaseLoss != want.Links[0].BaseLoss {
					t.Fatalf("AdjustPath(%s, %v) diverged after AdvanceTo(%v)", site, probe, epoch)
				}
			}
		}
	}
}
