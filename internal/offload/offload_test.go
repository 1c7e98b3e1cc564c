package offload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/network"
	"repro/internal/tasks"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

// testWorld builds a vehicle DSF, a road with one RSU in range, and the
// cloud.
func testWorld(t *testing.T, speedMS float64) (*Engine, *xedge.Site, *xedge.Site) {
	t.Helper()
	m, err := vcu.DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
	if err != nil {
		t.Fatal(err)
	}
	road, err := geo.NewRoad(10000)
	if err != nil {
		t.Fatal(err)
	}
	road.PlaceStations(10, geo.BaseStation, 800, 0, "bs")
	rsu, err := xedge.NewRSU(geo.Station{ID: "rsu-0", Kind: geo.RSU, Pos: geo.Point{X: 100}, Radius: 50000})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := xedge.NewCloud()
	if err != nil {
		t.Fatal(err)
	}
	mob := geo.Mobility{Road: road, SpeedMS: speedMS}
	eng, err := NewEngine(dsf, mob, []*xedge.Site{rsu, cl})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rsu, cl
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, geo.Mobility{}, nil); err == nil {
		t.Fatal("nil DSF accepted")
	}
}

// TestNewEngineRefusesAmbiguousSites: a destination is named by its site's
// name, so two sites of one name would share one cached access path and
// one execution target, and a site named OnboardName would run on the DSF
// and commit as vehicle-local. NewEngine refuses both, and a nil site.
func TestNewEngineRefusesAmbiguousSites(t *testing.T) {
	eng, rsu, cl := testWorld(t, 15)
	near, err := xedge.NewRSU(geo.Station{ID: "dup", Kind: geo.RSU, Pos: geo.Point{X: 100}, Radius: 50000})
	if err != nil {
		t.Fatal(err)
	}
	node, err := hardware.Lookup(hardware.DeviceCloudNode)
	if err != nil {
		t.Fatal(err)
	}
	far, err := xedge.New("dup", xedge.CloudSite, geo.Station{}, cl.Access(), node)
	if err != nil {
		t.Fatal(err)
	}
	onboard, err := xedge.NewRSU(geo.Station{ID: OnboardName, Kind: geo.RSU, Pos: geo.Point{X: 100}, Radius: 50000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sites []*xedge.Site
		want  string
	}{
		{"duplicate name", []*xedge.Site{near, cl, far}, `two sites named "dup"`},
		{"onboard name", []*xedge.Site{rsu, onboard}, `site name "onboard" is reserved`},
		{"nil site", []*xedge.Site{rsu, nil}, "nil site at position 1"},
	} {
		if _, err := NewEngine(eng.dsf, eng.mob, c.sites); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewEngine error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestEstimatesCoverAllDestinations(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	ests, err := eng.Estimates(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 { // onboard + rsu + cloud
		t.Fatalf("estimates = %d, want 3", len(ests))
	}
	names := map[string]bool{}
	for _, e := range ests {
		names[e.Dest] = true
		if !e.Feasible {
			t.Errorf("destination %s infeasible: %s", e.Dest, e.Reason)
		}
	}
	for _, want := range []string{OnboardName, "rsu-0", "cloud"} {
		if !names[want] {
			t.Errorf("missing destination %s", want)
		}
	}
	// Sorted by total latency.
	for i := 1; i < len(ests); i++ {
		if ests[i-1].Total > ests[i].Total {
			t.Fatal("estimates not sorted by latency")
		}
	}
}

func TestOnboardHasNoTransfer(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	est := eng.EstimateOnboard(tasks.ALPR(), 0)
	if !est.Feasible {
		t.Fatalf("onboard infeasible: %s", est.Reason)
	}
	if est.Uplink != 0 || est.Downlink != 0 || est.BytesSent != 0 {
		t.Fatalf("onboard estimate has transfer: %+v", est)
	}
}

func TestOffloadEstimateComponents(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	est := eng.EstimateSite(tasks.ALPR(), rsu, 0, 0)
	if !est.Feasible {
		t.Fatalf("rsu infeasible: %s", est.Reason)
	}
	if est.Uplink <= 0 || est.Compute <= 0 || est.Downlink <= 0 {
		t.Fatalf("missing components: %+v", est)
	}
	if est.Total < est.Uplink+est.Compute {
		t.Fatalf("total %v < uplink+compute", est.Total)
	}
	if est.BytesSent <= 0 {
		t.Fatal("no bytes accounted for full offload")
	}
	if est.VehicleEnergyJ <= 0 {
		t.Fatal("no radio energy charged")
	}
}

// TestSplitReducesUplink is the Firework/Neurosurgeon claim the paper
// cites: running the early filtering stage on-board shrinks what crosses
// the network.
func TestSplitReducesUplink(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	full := eng.EstimateSite(tasks.ALPR(), rsu, 0, 0)
	split := eng.EstimateSite(tasks.ALPR(), rsu, 1, 0)
	if !full.Feasible || !split.Feasible {
		t.Fatalf("estimates infeasible: %+v %+v", full, split)
	}
	if split.BytesSent >= full.BytesSent {
		t.Fatalf("split did not reduce bytes: %v -> %v", full.BytesSent, split.BytesSent)
	}
	if split.Uplink >= full.Uplink {
		t.Fatalf("split did not reduce uplink time: %v -> %v", full.Uplink, split.Uplink)
	}
}

func TestSplitBoundsChecked(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	if est := eng.EstimateSite(tasks.ALPR(), rsu, -1, 0); est.Feasible {
		t.Fatal("negative split accepted")
	}
	if est := eng.EstimateSite(tasks.ALPR(), rsu, 3, 0); est.Feasible {
		t.Fatal("split == len(tasks) accepted (that is onboard execution)")
	}
}

func TestCoverageGates(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	smallRSU, err := xedge.NewRSU(geo.Station{ID: "far-rsu", Kind: geo.RSU, Pos: geo.Point{X: 9000}, Radius: 100})
	if err != nil {
		t.Fatal(err)
	}
	est := eng.EstimateSite(tasks.ALPR(), smallRSU, 0, 0) // vehicle at x=0
	if est.Feasible {
		t.Fatal("out-of-coverage site feasible")
	}
	if est.Reason != "out of coverage" {
		t.Fatalf("reason = %q", est.Reason)
	}
}

// TestSpeedDegradesCellular: at 70 MPH the LTE paths (cloud) slow down
// while the on-board estimate is untouched.
func TestSpeedDegradesCellular(t *testing.T) {
	still, _, _ := testWorld(t, 0)
	fast, _, _ := testWorld(t, geo.MPH(70))
	dag := tasks.ALPR()
	cloudStill := findEst(t, still, dag, "cloud")
	cloudFast := findEst(t, fast, dag, "cloud")
	if cloudFast.Uplink <= cloudStill.Uplink {
		t.Fatalf("70 MPH uplink (%v) not slower than parked (%v)", cloudFast.Uplink, cloudStill.Uplink)
	}
	onStill := still.EstimateOnboard(dag, 0)
	onFast := fast.EstimateOnboard(dag, 0)
	if onStill.Total != onFast.Total {
		t.Fatal("onboard estimate depends on speed")
	}
}

func findEst(t *testing.T, eng *Engine, dag *tasks.DAG, dest string) Estimate {
	t.Helper()
	ests, err := eng.Estimates(dag, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		if e.Dest == dest {
			return e
		}
	}
	t.Fatalf("destination %s not found", dest)
	return Estimate{}
}

// TestDecidePrefersEdgeForHeavyDNN: the DNN vehicle detector is ~14s on
// board (Table I class hardware is stronger here, but still slow) while an
// RSU GPU plus a small frame upload is far faster.
func TestDecidePrefersEdgeForHeavyDNN(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	heavy := &tasks.DAG{Name: "heavy-dnn", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}}
	best, _, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Dest == OnboardName {
		t.Fatalf("heavy DNN stayed on board (%v)", best.Total)
	}
}

// TestDecidePrefersOnboardForTinyTasks: shipping a frame to the cloud for
// a 13.57 ms lane detection is never worth it.
func TestDecidePrefersOnboardForTinyTasks(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	tiny := &tasks.DAG{Name: "tiny", Tasks: []*tasks.Task{tasks.LaneDetection()}}
	best, _, err := eng.Decide(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Dest != OnboardName {
		t.Fatalf("lane detection offloaded to %s", best.Dest)
	}
}

func TestExecuteOnboardAndRemote(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	dag := tasks.ALPR()
	onboard := eng.EstimateOnboard(dag, 0)
	done, err := eng.Execute(dag, onboard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("onboard execute returned non-positive completion")
	}
	remote := eng.EstimateSite(dag, rsu, 1, 0)
	done2, err := eng.Execute(dag, remote, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= 0 {
		t.Fatal("remote execute returned non-positive completion")
	}
	if rsu.Utilization(time.Second) == 0 {
		t.Fatal("remote execute did not reserve site time")
	}
}

func TestExecuteRejectsInfeasible(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	if _, err := eng.Execute(tasks.ALPR(), Estimate{Feasible: false}, 0); err == nil {
		t.Fatal("infeasible estimate executed")
	}
	if _, err := eng.Execute(tasks.ALPR(), Estimate{Feasible: true, Dest: "ghost"}, 0); err == nil {
		t.Fatal("unknown destination executed")
	}
}

// TestBusyEdgeShiftsDecision: saturating the RSU should push the decision
// elsewhere.
func TestBusyEdgeShiftsDecision(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	heavy := &tasks.DAG{Name: "heavy-dnn", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}}
	best1, _, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best1.Dest != rsu.Name() {
		t.Skipf("baseline best is %s, not the RSU", best1.Dest)
	}
	if err := rsu.Preload(200, hardware.DNNInference, 500); err != nil {
		t.Fatal(err)
	}
	best2, _, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best2.Dest == rsu.Name() {
		t.Fatal("decision stuck to saturated RSU")
	}
}

func TestEstimatesValidation(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	if _, err := eng.Estimates(nil, 0); err == nil {
		t.Fatal("nil DAG accepted")
	}
	bad := &tasks.DAG{Name: "bad", Tasks: []*tasks.Task{{ID: "a", Deps: []string{"missing"}}}}
	if _, err := eng.Estimates(bad, 0); err == nil {
		t.Fatal("invalid DAG accepted")
	}
}

func TestMobilityAdjustedPathOnlyTouchesCellular(t *testing.T) {
	eng, _, _ := testWorld(t, geo.MPH(70))
	dsrc, _ := network.LookupLink("dsrc")
	lte, _ := network.LookupLink("lte")
	p := network.Path{Name: "mix", Links: []network.LinkSpec{dsrc, lte}}
	adj := eng.mobilityAdjustedPath(p)
	if adj.Links[0].BaseLoss != dsrc.BaseLoss {
		t.Fatal("DSRC loss modified by speed")
	}
	if adj.Links[1].BaseLoss <= lte.BaseLoss {
		t.Fatal("LTE loss not raised at 70 MPH")
	}
	// Original path must be untouched.
	if p.Links[1].BaseLoss != lte.BaseLoss {
		t.Fatal("adjustment mutated the input path")
	}
}

func TestSitesAccessors(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	if len(eng.Sites()) != 2 {
		t.Fatalf("Sites = %d", len(eng.Sites()))
	}
	eng.SetMobility(geo.Mobility{SpeedMS: 5})
}

// TestBandwidthBudgetForcesOnboard: with an exhausted uplink budget, the
// heavy DNN job that would normally offload must run on board.
func TestBandwidthBudgetForcesOnboard(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	heavy := &tasks.DAG{Name: "heavy-dnn", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}}
	best, _, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Dest == OnboardName {
		t.Skip("baseline already onboard")
	}
	// Budget below one frame upload.
	eng.SetBandwidthBudget(1000)
	best2, all, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best2.Dest != OnboardName {
		t.Fatalf("budget-bound decision = %s, want onboard", best2.Dest)
	}
	for _, est := range all {
		if est.Dest != OnboardName && est.Feasible {
			t.Fatalf("remote destination %s feasible with 1 kB budget", est.Dest)
		}
	}
}

// TestBandwidthBudgetAccounting: executing offloads consumes budget; once
// spent, further offloads are rejected.
func TestBandwidthBudgetAccounting(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	dag := tasks.ALPR()
	est := eng.EstimateSite(dag, rsu, 0, 0)
	if !est.Feasible {
		t.Fatalf("estimate infeasible: %s", est.Reason)
	}
	eng.SetBandwidthBudget(est.BytesSent * 1.5)
	if _, err := eng.Execute(dag, est, 0); err != nil {
		t.Fatal(err)
	}
	if eng.BytesSpent() != est.BytesSent {
		t.Fatalf("spent %v, want %v", eng.BytesSpent(), est.BytesSent)
	}
	remaining, ok := eng.BandwidthRemaining()
	if !ok || remaining >= est.BytesSent {
		t.Fatalf("remaining = %v, %v", remaining, ok)
	}
	// Second full offload exceeds the budget.
	if _, err := eng.Execute(dag, est, time.Second); err == nil {
		t.Fatal("over-budget execute succeeded")
	}
	// Clearing the budget restores offloading.
	eng.SetBandwidthBudget(0)
	if _, ok := eng.BandwidthRemaining(); ok {
		t.Fatal("cleared budget still reported")
	}
	if _, err := eng.Execute(dag, est, 2*time.Second); err != nil {
		t.Fatalf("execute after clearing budget: %v", err)
	}
}

// TestFailedExecuteDoesNotBurnBudget: regression for the charge-ordering
// bug where execute spent the bandwidth budget before resolving the
// destination, so a failed execution permanently burned budget.
func TestFailedExecuteDoesNotBurnBudget(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	dag := tasks.ALPR()
	est := eng.EstimateSite(dag, rsu, 0, 0)
	if !est.Feasible {
		t.Fatalf("estimate infeasible: %s", est.Reason)
	}
	eng.SetBandwidthBudget(est.BytesSent * 2)
	bad := est
	bad.Dest = "ghost" // destination resolution fails mid-execute
	if _, err := eng.Execute(dag, bad, 0); err == nil {
		t.Fatal("unknown destination executed")
	}
	if got := eng.BytesSpent(); got != 0 {
		t.Fatalf("failed execute burned %.0f budget bytes", got)
	}
	// The budget is still intact, so the real offload must succeed and
	// charge exactly once.
	if _, err := eng.Execute(dag, est, 0); err != nil {
		t.Fatalf("execute after failed attempt: %v", err)
	}
	if got := eng.BytesSpent(); got != est.BytesSent {
		t.Fatalf("spent %.0f, want %.0f", got, est.BytesSent)
	}
}

// TestBudgetReasonNeverNegative: the budget-exhausted Reason must clamp
// remaining bytes at zero even if spending somehow overshot the budget.
func TestBudgetReasonNeverNegative(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	eng.SetBandwidthBudget(10)
	eng.spentBytes = 25 // overshoot (what the pre-fix charge bug produced)
	est := eng.EstimateSite(tasks.ALPR(), rsu, 0, 0)
	if est.Feasible {
		t.Fatal("over-budget estimate feasible")
	}
	if !strings.HasSuffix(est.Reason, "0 B left)") {
		t.Fatalf("reason %q does not clamp remaining budget at zero", est.Reason)
	}
	if strings.Contains(est.Reason, "-") {
		t.Fatalf("reason %q prints a negative budget", est.Reason)
	}
}

// TestSiteOutageFallsBack: a down RSU becomes infeasible and the decision
// falls elsewhere; restoring it brings it back.
func TestSiteOutageFallsBack(t *testing.T) {
	eng, rsu, _ := testWorld(t, 0)
	heavy := &tasks.DAG{Name: "heavy-dnn", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}}
	best, _, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Dest != rsu.Name() {
		t.Skipf("baseline best is %s", best.Dest)
	}
	rsu.SetAvailable(false)
	best2, all, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best2.Dest == rsu.Name() {
		t.Fatal("down site chosen")
	}
	for _, est := range all {
		if est.Dest == rsu.Name() && est.Feasible {
			t.Fatal("down site feasible")
		}
	}
	rsu.SetAvailable(true)
	best3, _, err := eng.Decide(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best3.Dest != rsu.Name() {
		t.Fatalf("restored site not chosen: %s", best3.Dest)
	}
}

// TestPathCacheInvalidatedOnMobilityChange: the memoized base path must
// re-derive after SetMobility — a speed change has to
// degrade cellular estimates exactly as it would on a cold engine.
func TestPathCacheInvalidatedOnMobilityChange(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	dag := tasks.ALPR()
	parked := findEst(t, eng, dag, "cloud")
	// Warm the cache, then change speed on the same engine.
	mob := eng.mob
	mob.SpeedMS = geo.MPH(70)
	eng.SetMobility(mob)
	fast := findEst(t, eng, dag, "cloud")
	if fast.Uplink <= parked.Uplink {
		t.Fatalf("uplink after SetMobility (%v) not slower than parked cached estimate (%v)", fast.Uplink, parked.Uplink)
	}
	// Must equal a cold engine at the same speed.
	cold, _, _ := testWorld(t, geo.MPH(70))
	want := findEst(t, cold, dag, "cloud")
	if fast.Uplink != want.Uplink || fast.Downlink != want.Downlink {
		t.Fatalf("cached engine estimate %v/%v != cold engine %v/%v",
			fast.Uplink, fast.Downlink, want.Uplink, want.Downlink)
	}
}

// TestPathCacheKeepsFaultWindowsLive: the cached base path must not
// swallow the PathAdjuster — a degradation window starting after the
// cache warmed still has to slow transfers inside the window and stop
// outside it.
func TestPathCacheKeepsFaultWindowsLive(t *testing.T) {
	eng, _, _ := testWorld(t, 0)
	dag := tasks.ALPR()
	before := findEst(t, eng, dag, "cloud") // warms the path cache
	window := Window{From: 10 * time.Second, To: 20 * time.Second}
	eng.SetPathAdjuster(func(dest string, p network.Path, now time.Duration) network.Path {
		if dest != "cloud" || now < window.From || now >= window.To {
			return p
		}
		adj := network.Path{Name: p.Name, Links: append([]network.LinkSpec(nil), p.Links...)}
		for i := range adj.Links {
			adj.Links[i].UpMbps /= 10
			adj.Links[i].DownMbps /= 10
		}
		return adj
	})
	ests, err := eng.Estimates(dag, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var inWindow Estimate
	for _, e := range ests {
		if e.Dest == "cloud" {
			inWindow = e
		}
	}
	if inWindow.Uplink <= before.Uplink {
		t.Fatalf("uplink inside fault window (%v) not slower than healthy (%v)", inWindow.Uplink, before.Uplink)
	}
	after := findEst(t, eng, dag, "cloud") // now=0, outside the window
	if after.Uplink != before.Uplink {
		t.Fatalf("uplink outside window %v != healthy baseline %v", after.Uplink, before.Uplink)
	}
}

// Window is a local [From, To) helper for the adjuster test.
type Window struct{ From, To time.Duration }
