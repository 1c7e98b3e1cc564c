package edgeos

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/offload"
	"repro/internal/tasks"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

// buildManager assembles an elastic manager with an on-board VCU, one
// huge-coverage RSU, and the cloud, at the given vehicle speed. Shared by
// tests and benchmarks.
func buildManager(speedMS float64, objective Objective) (*ElasticManager, error) {
	m, err := vcu.DefaultVCU()
	if err != nil {
		return nil, err
	}
	dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
	if err != nil {
		return nil, err
	}
	road, err := geo.NewRoad(10000)
	if err != nil {
		return nil, err
	}
	road.PlaceStations(10, geo.BaseStation, 800, 0, "bs")
	rsu, err := xedge.NewRSU(geo.Station{ID: "rsu-0", Kind: geo.RSU, Pos: geo.Point{X: 0}, Radius: 1e9})
	if err != nil {
		return nil, err
	}
	cl, err := xedge.NewCloud()
	if err != nil {
		return nil, err
	}
	eng, err := offload.NewEngine(dsf, geo.Mobility{Road: road, SpeedMS: speedMS}, []*xedge.Site{rsu, cl})
	if err != nil {
		return nil, err
	}
	return NewElasticManager(eng, objective)
}

// newManager is the test-side wrapper around buildManager.
func newManager(t *testing.T, speedMS float64, objective Objective) *ElasticManager {
	t.Helper()
	mgr, err := buildManager(speedMS, objective)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func kidnapperService() *Service {
	return &Service{
		Name:     "kidnapper-search",
		Priority: PriorityInteractive,
		Deadline: 2 * time.Second,
		DAG:      tasks.ALPR(),
		Image:    []byte("kidnapper-search-v1"),
	}
}

func TestNewElasticManagerValidation(t *testing.T) {
	if _, err := NewElasticManager(nil, MinLatency); err == nil {
		t.Fatal("nil engine accepted")
	}
	mgr := newManager(t, 0, MinLatency)
	if _, err := NewElasticManager(mgr.Engine(), Objective(99)); err == nil {
		t.Fatal("bad objective accepted")
	}
	if _, err := NewElasticManager(mgr.Engine(), MinEnergy); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterValidation(t *testing.T) {
	mgr := newManager(t, 0, MinLatency)
	if err := mgr.Register(nil); err == nil {
		t.Fatal("nil service accepted")
	}
	if err := mgr.Register(&Service{Name: "x"}); err == nil {
		t.Fatal("DAG-less service accepted")
	}
	svc := kidnapperService()
	if err := mgr.Register(svc); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register(kidnapperService()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if svc.State() != Running {
		t.Fatalf("state after register = %v", svc.State())
	}
}

func TestServiceValidate(t *testing.T) {
	bad := []*Service{
		{},
		{Name: "x"},
		{Name: "x", DAG: tasks.ALPR(), Deadline: -1, Priority: PriorityInteractive},
		{Name: "x", DAG: tasks.ALPR(), Priority: 0},
		{Name: "x", DAG: tasks.ALPR(), Priority: PriorityInteractive,
			Pipelines: []Pipeline{{Name: "p", SplitAfter: 99}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate passed", i)
		}
	}
}

func TestDefaultPipelines(t *testing.T) {
	ps := DefaultPipelines(tasks.ALPR())
	if len(ps) != 4 { // onboard, offload-all, split-1, split-2
		t.Fatalf("pipelines = %d, want 4", len(ps))
	}
	if DefaultPipelines(nil) != nil {
		t.Fatal("nil DAG produced pipelines")
	}
}

func TestChooseEvaluatesAllPipelines(t *testing.T) {
	mgr := newManager(t, 0, MinLatency)
	if err := mgr.Register(kidnapperService()); err != nil {
		t.Fatal(err)
	}
	best, all, viable, err := mgr.Choose("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !viable {
		t.Fatal("no viable pipeline with good network and idle platform")
	}
	if len(all) != 4 {
		t.Fatalf("choices = %d, want 4", len(all))
	}
	if !best.MeetsDeadline {
		t.Fatal("best choice misses deadline")
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].MeetsDeadline == all[i].MeetsDeadline &&
			all[i-1].Estimate.Feasible && all[i].Estimate.Feasible &&
			all[i-1].Estimate.Total > all[i].Estimate.Total {
			t.Fatal("choices not sorted by latency within deadline class")
		}
	}
}

func TestInvokeRecordsStats(t *testing.T) {
	mgr := newManager(t, 0, MinLatency)
	if err := mgr.Register(kidnapperService()); err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Invoke("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.HungUp {
		t.Fatal("invocation hung up unexpectedly")
	}
	if res.Latency <= 0 {
		t.Fatal("non-positive latency")
	}
	st, err := mgr.Stats("kidnapper-search")
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations != 1 || st.HangUps != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PipelineUse[res.Pipeline] != 1 {
		t.Fatalf("pipeline use not recorded: %+v", st.PipelineUse)
	}
}

// TestHangUpWhenDeadlineImpossible: a deadline below any pipeline's
// latency hangs the service; loosening conditions resumes it.
func TestHangUpAndResume(t *testing.T) {
	mgr := newManager(t, 0, MinLatency)
	svc := kidnapperService()
	svc.Deadline = time.Nanosecond // impossible
	if err := mgr.Register(svc); err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Invoke("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HungUp {
		t.Fatal("impossible deadline not hung up")
	}
	if svc.State() != HungUp {
		t.Fatalf("state = %v, want hung-up", svc.State())
	}
	st, _ := mgr.Stats("kidnapper-search")
	if st.HangUps != 1 {
		t.Fatalf("hangups = %d", st.HangUps)
	}
	// Requirements relax: deadline becomes achievable, service resumes.
	svc.Deadline = 10 * time.Second
	res2, err := mgr.Invoke("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.HungUp {
		t.Fatal("service did not resume after conditions recovered")
	}
	if svc.State() != Running {
		t.Fatalf("state = %v after recovery", svc.State())
	}
}

// TestPipelineAdaptsToSpeed reproduces the paper's elastic-management
// story: with a parked vehicle and a good network, offloading wins for the
// DNN-heavy pipeline; at 70 MPH the cellular paths degrade, but the
// DSRC-linked RSU remains attractive — so force cellular-only by removing
// the RSU and watch the choice move on-board.
func TestPipelineAdaptsToSpeed(t *testing.T) {
	heavy := &Service{
		Name:     "heavy-detect",
		Priority: PrioritySafety,
		DAG:      &tasks.DAG{Name: "heavy", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}},
		Image:    []byte("heavy-v1"),
	}

	parked := newManager(t, 0, MinLatency)
	if err := parked.Register(heavy); err != nil {
		t.Fatal(err)
	}
	bestParked, _, _, err := parked.Choose("heavy-detect", 0)
	if err != nil {
		t.Fatal(err)
	}
	if bestParked.Estimate.Dest == offload.OnboardName {
		t.Fatal("parked vehicle kept heavy DNN on board")
	}

	// Cellular-only world at 70 MPH: build a manager whose only remote
	// site is the cloud.
	m, _ := vcu.DefaultVCU()
	dsf, _ := vcu.NewDSF(m, vcu.GreedyEFT{})
	road, _ := geo.NewRoad(10000)
	road.PlaceStations(10, geo.BaseStation, 800, 0, "bs")
	cl, _ := xedge.NewCloud()
	eng, _ := offload.NewEngine(dsf, geo.Mobility{Road: road, SpeedMS: geo.MPH(70)}, []*xedge.Site{cl})
	fast, err := NewElasticManager(eng, MinLatency)
	if err != nil {
		t.Fatal(err)
	}
	heavy2 := &Service{
		Name:     "heavy-detect",
		Priority: PrioritySafety,
		DAG:      heavy.DAG.Clone(),
		Image:    []byte("heavy-v1"),
	}
	if err := fast.Register(heavy2); err != nil {
		t.Fatal(err)
	}
	bestFast, _, _, err := fast.Choose("heavy-detect", 0)
	if err != nil {
		t.Fatal(err)
	}
	if bestFast.Estimate.Total <= bestParked.Estimate.Total {
		t.Fatalf("degraded network not slower: %v <= %v", bestFast.Estimate.Total, bestParked.Estimate.Total)
	}
}

func TestMinEnergyObjective(t *testing.T) {
	lat := newManager(t, 0, MinLatency)
	eng := newManager(t, 0, MinEnergy)
	for _, mgr := range []*ElasticManager{lat, eng} {
		svc := kidnapperService()
		svc.Deadline = 30 * time.Second // loose, so energy mode has room
		if err := mgr.Register(svc); err != nil {
			t.Fatal(err)
		}
	}
	bl, _, _, err := lat.Choose("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	be, _, _, err := eng.Choose("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	if be.Estimate.VehicleEnergyJ > bl.Estimate.VehicleEnergyJ {
		t.Fatalf("energy objective picked costlier pipeline: %v J vs %v J",
			be.Estimate.VehicleEnergyJ, bl.Estimate.VehicleEnergyJ)
	}
}

func TestServicesSortedByPriority(t *testing.T) {
	mgr := newManager(t, 0, MinLatency)
	svcs := []*Service{
		{Name: "b-infotainment", Priority: PriorityBackground, DAG: tasks.InfotainmentDecode(), Image: []byte("i")},
		{Name: "a-pedestrian", Priority: PrioritySafety, DAG: tasks.PedestrianAlert(), Image: []byte("p")},
		{Name: "c-diag", Priority: PriorityInteractive, DAG: tasks.Diagnostics(), Image: []byte("d")},
	}
	for _, s := range svcs {
		if err := mgr.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	got := mgr.Services()
	want := []string{"a-pedestrian", "c-diag", "b-infotainment"}
	for i, s := range got {
		if s.Name != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestChooseUnknownAndStoppedService(t *testing.T) {
	mgr := newManager(t, 0, MinLatency)
	if _, _, _, err := mgr.Choose("ghost", 0); err == nil {
		t.Fatal("unknown service accepted")
	}
	svc := kidnapperService()
	if err := mgr.Register(svc); err != nil {
		t.Fatal(err)
	}
	svc.state = Stopped
	if _, _, _, err := mgr.Choose("kidnapper-search", 0); err == nil {
		t.Fatal("stopped service chose a pipeline")
	}
	if _, err := mgr.Stats("ghost"); err == nil {
		t.Fatal("stats for unknown service")
	}
}

func TestObjectiveString(t *testing.T) {
	if MinLatency.String() != "min-latency" || MinEnergy.String() != "min-energy" {
		t.Fatal("objective names wrong")
	}
	if Objective(9).String() != "objective(9)" {
		t.Fatal("unknown objective name wrong")
	}
	if Running.String() != "running" || HungUp.String() != "hung-up" || ServiceState(9).String() != "state(9)" {
		t.Fatal("state names wrong")
	}
}
