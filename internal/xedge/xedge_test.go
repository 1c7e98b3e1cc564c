package xedge

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/network"
)

func rsuStation() geo.Station {
	return geo.Station{ID: "rsu-0", Kind: geo.RSU, Pos: geo.Point{X: 500}, Radius: 300}
}

func TestNewValidation(t *testing.T) {
	xeon, _ := hardware.Lookup(hardware.DeviceEdgeXeon)
	dsrc, _ := network.LookupLink("dsrc")
	path := network.Path{Name: "p", Links: []network.LinkSpec{dsrc}}
	if _, err := New("", RSU, geo.Station{}, path, xeon); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New("x", RSU, geo.Station{}, path); err == nil {
		t.Fatal("no processors accepted")
	}
	if _, err := New("x", RSU, geo.Station{}, network.Path{}, xeon); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := New("x", RSU, geo.Station{}, path, &hardware.Processor{}); err == nil {
		t.Fatal("invalid processor accepted")
	}
}

func TestNewRSUConfiguration(t *testing.T) {
	s, err := NewRSU(rsuStation())
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != RSU || s.Name() != "rsu-0" {
		t.Fatalf("site = %s/%s", s.Name(), s.Kind())
	}
	if s.Access().Links[0].Tech != network.DSRC {
		t.Fatal("RSU not reached over DSRC")
	}
}

func TestReachability(t *testing.T) {
	s, _ := NewRSU(rsuStation())
	if !s.Reachable(geo.Point{X: 400}) {
		t.Fatal("in-coverage point unreachable")
	}
	if s.Reachable(geo.Point{X: 900}) {
		t.Fatal("out-of-coverage point reachable")
	}
	c, _ := NewCloud()
	if !c.Reachable(geo.Point{X: 1e9}) {
		t.Fatal("cloud should be position-independent")
	}
	n, _ := NewNeighborVehicle("buddy")
	if !n.Reachable(geo.Point{X: 123}) {
		t.Fatal("neighbor should be reachable in convoy")
	}
}

func TestSubmitAndEstimateAgree(t *testing.T) {
	s, _ := NewRSU(rsuStation())
	est, err := s.EstimateExec(0, hardware.DNNInference, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, finish, err := s.Submit(0, hardware.DNNInference, 100)
	if err != nil {
		t.Fatal(err)
	}
	if est != finish {
		t.Fatalf("estimate %v != submit finish %v", est, finish)
	}
}

func TestSubmitPicksFasterDevice(t *testing.T) {
	s, _ := NewRSU(rsuStation())
	// DNN work should land on the GPU (420 GF) not the Xeon (150 GF):
	// 100 GFLOP -> ~238ms on GPU.
	_, finish, err := s.Submit(0, hardware.DNNInference, 100)
	if err != nil {
		t.Fatal(err)
	}
	if finish > 300*time.Millisecond {
		t.Fatalf("DNN work took %v; expected GPU-speed (<300ms)", finish)
	}
}

func TestSubmitUnsupportedClass(t *testing.T) {
	n, _ := NewNeighborVehicle("buddy")
	// The TX2 has no Crypto entry but has General fallback, so use an
	// impossible class via a site with only an ASIC.
	asic, _ := hardware.Lookup(hardware.DeviceVCUASIC)
	dsrc, _ := network.LookupLink("dsrc")
	s, err := New("asic-site", RSU, geo.Station{}, network.Path{Name: "p", Links: []network.LinkSpec{dsrc}}, asic)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(0, hardware.Crypto, 1); err == nil {
		t.Fatal("unsupported class accepted")
	}
	_ = n
}

func TestPreloadRaisesQueueing(t *testing.T) {
	fresh, _ := NewRSU(rsuStation())
	busy, _ := NewRSU(rsuStation())
	if err := busy.Preload(64, hardware.DNNInference, 500); err != nil {
		t.Fatal(err)
	}
	ef, _ := fresh.EstimateExec(0, hardware.DNNInference, 100)
	eb, _ := busy.EstimateExec(0, hardware.DNNInference, 100)
	if eb <= ef {
		t.Fatalf("preloaded site not slower: %v vs %v", eb, ef)
	}
	if busy.Utilization(time.Second) <= fresh.Utilization(time.Second) {
		t.Fatal("preload did not raise utilization")
	}
}

func TestPlaceAlongRoad(t *testing.T) {
	road, _ := geo.NewRoad(10000)
	road.PlaceStations(4, geo.RSU, 300, 0, "rsu")
	road.PlaceStations(2, geo.BaseStation, 1500, 0, "bs")
	sites, err := PlaceAlongRoad(road)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 4 {
		t.Fatalf("placed %d sites, want 4 (RSUs only)", len(sites))
	}
	if _, err := PlaceAlongRoad(nil); err == nil {
		t.Fatal("nil road accepted")
	}
}

func TestSiteKindString(t *testing.T) {
	if RSU.String() != "rsu" || CloudSite.String() != "cloud" || SiteKind(42).String() != "site-kind(42)" {
		t.Fatal("kind names wrong")
	}
}

func TestCloudPath(t *testing.T) {
	c, err := NewCloud()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Access().Links) != 2 {
		t.Fatalf("cloud path has %d hops, want 2 (LTE + WAN)", len(c.Access().Links))
	}
	if c.Access().RTT() <= 100*time.Millisecond {
		t.Fatalf("cloud RTT = %v, want > 100ms", c.Access().RTT())
	}
}

func TestSiteAvailability(t *testing.T) {
	s, err := NewRSU(rsuStation())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Available() {
		t.Fatal("new site unavailable")
	}
	in := geo.Point{X: 400}
	if !s.Reachable(in) {
		t.Fatal("in-coverage point unreachable")
	}
	s.SetAvailable(false)
	if s.Reachable(in) {
		t.Fatal("down site reachable")
	}
	s.SetAvailable(true)
	if !s.Reachable(in) {
		t.Fatal("restored site unreachable")
	}
}

// TestUnavailableSiteRejectsSubmit is the regression test for the
// available-flag gap: Submit, EstimateExec, and Preload previously
// succeeded against a site marked down via SetAvailable(false), because
// only Reachable consulted the flag.
func TestUnavailableSiteRejectsSubmit(t *testing.T) {
	s, err := NewRSU(rsuStation())
	if err != nil {
		t.Fatal(err)
	}
	s.SetAvailable(false)
	if _, _, err := s.Submit(0, hardware.DNNInference, 10); err == nil {
		t.Fatal("submit to down site succeeded")
	}
	if _, err := s.EstimateExec(0, hardware.DNNInference, 10); err == nil {
		t.Fatal("estimate on down site succeeded")
	}
	if err := s.Preload(1, hardware.DNNInference, 10); err == nil {
		t.Fatal("preload of down site succeeded")
	}
	s.SetAvailable(true)
	start, finish, err := s.Submit(time.Second, hardware.DNNInference, 10)
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if finish <= start {
		t.Fatalf("bad reservation [%v, %v]", start, finish)
	}
}

// TestFaultInjectorGatesSubmit: an installed FaultFunc fails submissions
// without reserving executor time; removing it restores service.
func TestFaultInjectorGatesSubmit(t *testing.T) {
	s, err := NewRSU(rsuStation())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	s.SetFaultInjector(func(now time.Duration) error {
		calls++
		if now < time.Second {
			return fmt.Errorf("injected fault at %v", now)
		}
		return nil
	})
	if _, _, err := s.Submit(0, hardware.DNNInference, 10); err == nil {
		t.Fatal("submit during fault window succeeded")
	}
	if u := s.Utilization(time.Second); u != 0 {
		t.Fatalf("failed submit reserved executor time (util %v)", u)
	}
	if _, _, err := s.Submit(2*time.Second, hardware.DNNInference, 10); err != nil {
		t.Fatalf("submit past fault window: %v", err)
	}
	if calls != 2 {
		t.Fatalf("fault hook called %d times, want 2", calls)
	}
	s.SetFaultInjector(nil)
	if _, _, err := s.Submit(0, hardware.DNNInference, 10); err != nil {
		t.Fatalf("submit after removing hook: %v", err)
	}
}

// TestRateCacheMatchesExecutorEstimates: the memoized class-rate path in
// bestExec must agree exactly with the executors' own EstimateFinish, on
// first use (cache fill) and on repeat use (cache hit), across classes
// and queue depths.
func TestRateCacheMatchesExecutorEstimates(t *testing.T) {
	s, _ := NewRSU(rsuStation())
	classes := []hardware.Class{hardware.DNNInference, hardware.General, hardware.Codec}
	ref := func(now time.Duration, c hardware.Class, gflop float64) (time.Duration, bool) {
		var best time.Duration
		found := false
		for _, e := range s.execs {
			finish, err := e.EstimateFinish(now, c, gflop)
			if err != nil {
				continue
			}
			if !found || finish < best {
				best, found = finish, true
			}
		}
		return best, found
	}
	for round := 0; round < 3; round++ {
		for i, c := range classes {
			now := time.Duration(round*50+i) * time.Millisecond
			gflop := float64(10 + 37*i + round)
			want, feasible := ref(now, c, gflop)
			got, err := s.EstimateExec(now, c, gflop)
			if !feasible {
				if err == nil {
					t.Fatalf("round %d class %v: cache feasible, reference not", round, c)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d class %v: %v", round, c, err)
			}
			if got != want {
				t.Fatalf("round %d class %v: cached estimate %v != reference %v", round, c, got, want)
			}
		}
		// Load the site so queue state changes between rounds.
		if _, _, err := s.Submit(0, hardware.DNNInference, 200); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRateCacheSurvivesAvailabilityFlip: the rate table is warmed at
// construction and immutable; estimates must fail while the site is down
// and return to exact agreement after it comes back.
func TestRateCacheSurvivesAvailabilityFlip(t *testing.T) {
	s, _ := NewRSU(rsuStation())
	before, err := s.EstimateExec(0, hardware.DNNInference, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.SetAvailable(false)
	if _, err := s.EstimateExec(0, hardware.DNNInference, 100); err == nil {
		t.Fatal("estimate succeeded on a down site")
	}
	if len(s.svcRates) != len(hardware.Classes()) {
		t.Fatalf("rate table not warm across availability flip: %d classes", len(s.svcRates))
	}
	s.SetAvailable(true)
	after, err := s.EstimateExec(0, hardware.DNNInference, 100)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("estimate changed across availability flip: %v != %v", after, before)
	}
}

// TestFreezeAssertsCommitPhaseOwnership: a frozen site must reject every
// mutation with a panic (ownership-model violation) while read paths keep
// working, and Unfreeze restores mutability.
func TestFreezeAssertsCommitPhaseOwnership(t *testing.T) {
	s, _ := NewRSU(rsuStation())
	s.Freeze()
	if !s.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	// Reads stay legal during the decision phase.
	if _, err := s.EstimateExec(0, hardware.DNNInference, 100); err != nil {
		t.Fatal(err)
	}
	if !s.Reachable(s.Station().Pos) {
		t.Fatal("frozen site unreachable")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic on a frozen site", name)
			}
		}()
		fn()
	}
	mustPanic("Submit", func() { s.Submit(0, hardware.DNNInference, 100) })
	mustPanic("SetAvailable", func() { s.SetAvailable(false) })
	mustPanic("Preload", func() { s.Preload(1, hardware.DNNInference, 100) })
	mustPanic("SetFaultInjector", func() { s.SetFaultInjector(nil) })
	s.Unfreeze()
	if _, _, err := s.Submit(0, hardware.DNNInference, 100); err != nil {
		t.Fatalf("Submit after Unfreeze: %v", err)
	}
}
