package faults

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/network"
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

// windowsOf lists a plan's outage, degradation and exec-fault windows,
// site by site in the plan's order.
func windowsOf(p *Plan) [][]Window {
	var out [][]Window
	for _, sp := range p.sites {
		out = append(out, sp.outages, sp.degrades, sp.execFaults)
	}
	return out
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
	if !reflect.DeepEqual(windowsOf(a), windowsOf(b)) {
		t.Fatal("identical seeds produced different plans")
	}
	c, err := NewPlan(densePlanConfig(), sim.NewStream(7, 4), testSites(t))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(windowsOf(a), windowsOf(c)) {
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
		for _, ws := range [][]Window{plan.byName[site].outages, plan.byName[site].degrades, plan.byName[site].execFaults} {
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
				if w.To > plan.cfg.Horizon {
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
	outages := plan.byName["rsu-0"].outages
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
	execWins := plan.byName["rsu-0"].execFaults
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
	wins := plan.byName["rsu-0"].degrades
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
	adj := inj.AdjustPath(nil, "rsu-0", p, mid)
	if adj.Links[0].UpMbps >= origUp {
		t.Fatalf("bandwidth not reduced: %v -> %v", origUp, adj.Links[0].UpMbps)
	}
	if adj.Links[0].BaseLoss <= p.Links[0].BaseLoss {
		t.Fatal("loss not raised")
	}
	if p.Links[0].UpMbps != origUp {
		t.Fatal("input path mutated")
	}
	clean := inj.AdjustPath(nil, "rsu-0", p, 0)
	if clean.Links[0].UpMbps != origUp {
		t.Fatal("healthy-time path degraded")
	}
	if unknown := inj.AdjustPath(nil, "ghost", p, mid); unknown.Links[0].UpMbps != origUp {
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
	outages := plan.byName["rsu-0"].outages
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
	if !reflect.DeepEqual(windowsOf(planA), windowsOf(planB)) {
		t.Fatal("twin plans diverged")
	}
	horizon := planA.cfg.Horizon
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
				if gotErr != wantErr {
					t.Fatalf("faultAt(%s, %v) diverged after AdvanceTo(%v): cursored=%v fullscan=%v",
						site, probe, epoch, gotErr, wantErr)
				}
				got := cursored.AdjustPath(nil, site, access, probe)
				want := fullScan.AdjustPath(nil, site, access, probe)
				if got.Links[0].UpMbps != want.Links[0].UpMbps || got.Links[0].BaseLoss != want.Links[0].BaseLoss {
					t.Fatalf("AdjustPath(%s, %v) diverged after AdvanceTo(%v)", site, probe, epoch)
				}
			}
		}
	}
}

// copyAdjustPath is AdjustPath as it was before it wrote into caller
// scratch: every degraded path is a fresh copy. FuzzAdjustPathMatchesCopy
// holds the scratch adjuster to it.
func (in *Injector) copyAdjustPath(dest string, p network.Path, now time.Duration) network.Path {
	sp, ok := in.plan.byName[dest]
	if !ok || !inWindowsFrom(sp.degrades, 0, now) {
		return p
	}
	adj := network.Path{Name: p.Name, Links: make([]network.LinkSpec, len(p.Links))}
	copy(adj.Links, p.Links)
	for i := range adj.Links {
		adj.Links[i].UpMbps *= degradeBandwidthFactor
		adj.Links[i].DownMbps *= degradeBandwidthFactor
		loss := adj.Links[i].BaseLoss + degradeLossDelta
		if loss > 0.95 {
			loss = 0.95
		}
		adj.Links[i].BaseLoss = loss
	}
	return adj
}

// FuzzAdjustPathMatchesCopy: over random fault plans, paths, probe times,
// epoch cursors and dst capacities, the scratch adjuster returns what the
// copying one does, leaves the input path alone, hands p back itself
// outside a window, and writes a degraded path into dst whenever dst has
// room for it.
func FuzzAdjustPathMatchesCopy(f *testing.F) {
	f.Add(int64(13), []byte{2, 0, 0, 0, 0, 0}, uint16(2500), uint16(0), uint8(2), uint8(0))
	f.Add(int64(29), []byte{0x41, 9, 0xff, 3, 1, 7, 0x80, 200}, uint16(9000), uint16(4000), uint8(0), uint8(1))
	f.Add(int64(3), []byte{7}, uint16(4100), uint16(6000), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, links []byte, probeMS, epochMS uint16, dstCap, dest uint8) {
		sites := testSites(t)
		plan, err := NewPlan(densePlanConfig(), sim.NewStream(seed, 0), sites)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		inj.AdvanceTo(time.Duration(epochMS%12000) * time.Millisecond)
		// Each byte of links is one link: bandwidth and loss from its bits.
		p := network.Path{Name: "fuzzed"}
		for i, b := range links[:min(len(links), 8)] {
			p.Links = append(p.Links, network.LinkSpec{
				Name:     string(rune('a' + i)),
				UpMbps:   float64(b&0x0f+1) * 10,
				DownMbps: float64(b>>4+1) * 10,
				RTT:      time.Duration(b) * time.Millisecond,
				BaseLoss: float64(b) / 255,
			})
		}
		in := network.Path{Name: p.Name, Links: append([]network.LinkSpec(nil), p.Links...)}
		name := []string{"rsu-0", "cloud", "ghost"}[dest%3]
		now := time.Duration(probeMS%12000) * time.Millisecond
		c := int(dstCap % 10)
		dst := make([]network.LinkSpec, int(dstCap/10)%(c+1), c)
		for i := range dst {
			dst[i] = network.LinkSpec{Name: "stale", UpMbps: -1}
		}

		got := inj.AdjustPath(dst, name, p, now)
		want := inj.copyAdjustPath(name, in, now)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AdjustPath(%s, %v)\n got %+v\nwant %+v", name, now, got, want)
		}
		if !reflect.DeepEqual(p, in) {
			t.Fatalf("input path rewritten: %+v, was %+v", p, in)
		}
		if len(p.Links) == 0 {
			return
		}
		degraded := plan.byName[name] != nil && inWindowsFrom(plan.byName[name].degrades, 0, now)
		switch {
		case !degraded && &got.Links[0] != &p.Links[0]:
			t.Fatalf("a clean path is not p itself")
		case degraded && cap(dst) >= len(p.Links) && &got.Links[0] != &dst[:1][0]:
			t.Fatalf("a degraded path did not go into dst (cap %d, %d links)", cap(dst), len(p.Links))
		}
	})
}
