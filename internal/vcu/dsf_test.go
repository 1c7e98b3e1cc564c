package vcu

import (
	"errors"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/tasks"
)

func newDSF(t *testing.T, p Policy) *DSF {
	t.Helper()
	m, err := DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDSF(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewDSFValidation(t *testing.T) {
	m, _ := DefaultVCU()
	if _, err := NewDSF(nil, GreedyEFT{}); err == nil {
		t.Fatal("nil mHEP accepted")
	}
	if _, err := NewDSF(m, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	s, _ := NewDSF(m, GreedyEFT{})
	if err := s.SetPolicy(nil); err == nil {
		t.Fatal("SetPolicy(nil) accepted")
	}
	if err := s.SetPolicy(HEFT{}); err != nil || s.Policy().Name() != "heft" {
		t.Fatal("SetPolicy failed")
	}
}

func TestAllPoliciesPlanALPR(t *testing.T) {
	for _, policy := range Policies() {
		s := newDSF(t, policy)
		plan, err := s.Plan(tasks.ALPR(), 0)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if len(plan.Assignments) != 3 {
			t.Fatalf("%s: %d assignments, want 3", policy.Name(), len(plan.Assignments))
		}
		if plan.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan %v", policy.Name(), plan.Makespan)
		}
		if plan.EnergyJ <= 0 {
			t.Fatalf("%s: non-positive energy %v", policy.Name(), plan.EnergyJ)
		}
		// Dependencies must be respected in time.
		md, _ := plan.Assignment("motion-detect")
		pd, _ := plan.Assignment("plate-detect")
		pr, _ := plan.Assignment("plate-recognize")
		if pd.Start < md.Finish || pr.Start < pd.Finish {
			t.Fatalf("%s: dependency times violated: %+v", policy.Name(), plan.Assignments)
		}
	}
}

func TestPlanDoesNotTouchExecutors(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	if _, err := s.Plan(tasks.ALPR(), 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.MHEP().Devices() {
		if d.Executor().Completed() != 0 {
			t.Fatalf("planning submitted work to %s", d.Name())
		}
	}
}

func TestCommitReservesDeviceTime(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	committed, err := s.Run(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range s.MHEP().Devices() {
		total += d.Executor().Completed()
	}
	if total != 3 {
		t.Fatalf("executors saw %d submissions, want 3", total)
	}
	if len(committed.Assignments) != 3 {
		t.Fatalf("committed plan has %d assignments, want 3", len(committed.Assignments))
	}
	if committed.Makespan <= 0 {
		t.Fatal("committed makespan not positive")
	}
}

func TestBackToBackRunsQueue(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	p1, err := s.Run(tasks.PedestrianAlert(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Run(tasks.PedestrianAlert(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := p1.Assignment("ped-detect")
	a2, _ := p2.Assignment("ped-detect")
	if a1.Device == a2.Device && a2.Start < a1.Finish {
		t.Fatalf("second run overlapped first on %s", a1.Device)
	}
}

func TestGreedyEFTBeatsRoundRobinOnContention(t *testing.T) {
	// Submit many DNN-heavy DAGs; EFT should spread and finish sooner.
	run := func(p Policy) time.Duration {
		s := newDSF(t, p)
		var last time.Duration
		for i := 0; i < 8; i++ {
			plan, err := s.Run(tasks.PedestrianAlert(), 0)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			for _, a := range plan.Assignments {
				if a.Finish > last {
					last = a.Finish
				}
			}
		}
		return last
	}
	eft := run(GreedyEFT{})
	rr := run(RoundRobin{})
	if eft > rr {
		t.Fatalf("greedy EFT (%v) slower than round robin (%v)", eft, rr)
	}
}

func TestHEFTAtLeastMatchesGreedyOnALPR(t *testing.T) {
	eft := newDSF(t, GreedyEFT{})
	heft := newDSF(t, HEFT{})
	pe, err := eft.Plan(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := heft.Plan(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Makespan > pe.Makespan*11/10 {
		t.Fatalf("HEFT makespan %v much worse than greedy %v", ph.Makespan, pe.Makespan)
	}
}

func TestPowerAwareSavesEnergy(t *testing.T) {
	eft := newDSF(t, GreedyEFT{})
	power := newDSF(t, PowerAware{Slack: 3})
	pe, err := eft.Plan(tasks.PedestrianAlert(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := power.Plan(tasks.PedestrianAlert(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pp.EnergyJ > pe.EnergyJ {
		t.Fatalf("power-aware used more energy (%v J) than EFT (%v J)", pp.EnergyJ, pe.EnergyJ)
	}
	if pp.Makespan > 3*pe.Makespan {
		t.Fatalf("power-aware exceeded its slack: %v vs %v", pp.Makespan, pe.Makespan)
	}
}

func TestPowerAwareInvalidSlack(t *testing.T) {
	s := newDSF(t, PowerAware{Slack: 0.5})
	if _, err := s.Plan(tasks.ALPR(), 0); err == nil {
		t.Fatal("slack < 1 accepted")
	}
}

func TestPinnedTaskHonored(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	dag := tasks.ALPR()
	dag.Tasks[0].Pinned = hardware.DeviceVCUFPGA
	plan, err := s.Plan(dag, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.Assignment("motion-detect")
	if a.Device != hardware.DeviceVCUFPGA {
		t.Fatalf("pinned task ran on %s", a.Device)
	}
}

func TestUnplaceableTask(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	dag := &tasks.DAG{Name: "impossible", Tasks: []*tasks.Task{{
		ID: "x", Class: hardware.DNNTraining, GFLOP: 1, MemoryMB: 1 << 30,
	}}}
	_, err := s.Plan(dag, 0)
	var ue *UnplaceableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnplaceableError", err)
	}
}

func TestOfflineDeviceNotScheduled(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	// The ASIC is the best DNN device; take it offline and ensure the
	// plan avoids it.
	if err := s.MHEP().SetOnline(hardware.DeviceVCUASIC, false); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan(tasks.PedestrianAlert(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if a.Device == hardware.DeviceVCUASIC {
			t.Fatal("offline device scheduled")
		}
	}
}

func TestRestrictApp(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	s.RestrictApp("alpr", []string{hardware.DeviceI76700})
	plan, err := s.Plan(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if a.Device != hardware.DeviceI76700 {
			t.Fatalf("restricted app escaped to %s", a.Device)
		}
	}
	// Unrestricted app unaffected.
	plan2, err := s.Plan(tasks.PedestrianAlert(), 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range plan2.Assignments {
		seen[a.Device] = true
	}
	// Clearing the restriction restores full platform access.
	s.RestrictApp("alpr", nil)
	plan3, err := s.Plan(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	free := false
	for _, a := range plan3.Assignments {
		if a.Device != hardware.DeviceI76700 {
			free = true
		}
	}
	if !free {
		t.Log("note: unrestricted plan still chose the CPU for all stages (allowed)")
	}
}

func TestRestrictAppToNothingFails(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	s.RestrictApp("alpr", []string{"ghost-device"})
	if _, err := s.Plan(tasks.ALPR(), 0); err == nil {
		t.Fatal("plan with empty allowed set succeeded")
	}
}

func TestSecondLevelDeviceRelievesLoad(t *testing.T) {
	// With the GPU/ASIC saturated, adding a phone should absorb some DNN
	// work or at least not slow things down.
	base := newDSF(t, GreedyEFT{})
	with2nd := newDSF(t, GreedyEFT{})
	phone, _ := hardware.Lookup(hardware.DevicePhone)
	if err := with2nd.MHEP().AddDevice(phone, SecondLevel, WiFiIO()); err != nil {
		t.Fatal(err)
	}
	runAll := func(s *DSF) time.Duration {
		var last time.Duration
		for i := 0; i < 12; i++ {
			plan, err := s.Run(tasks.PedestrianAlert(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range plan.Assignments {
				if a.Finish > last {
					last = a.Finish
				}
			}
		}
		return last
	}
	tBase := runAll(base)
	tWith := runAll(with2nd)
	if tWith > tBase {
		t.Fatalf("adding a 2ndHEP device slowed completion: %v -> %v", tBase, tWith)
	}
}

func TestCommitValidation(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	if _, err := s.Commit(tasks.ALPR(), nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	// Plan referencing a task not in the DAG.
	bad := &Plan{DAG: "alpr", Assignments: []Assignment{{TaskID: "ghost", Device: hardware.DeviceI76700}}}
	if _, err := s.Commit(tasks.ALPR(), bad); err == nil {
		t.Fatal("plan with unknown task accepted")
	}
	// Plan referencing an unknown device.
	bad2 := &Plan{DAG: "alpr", Assignments: []Assignment{{TaskID: "motion-detect", Device: "ghost"}}}
	if _, err := s.Commit(tasks.ALPR(), bad2); err == nil {
		t.Fatal("plan with unknown device accepted")
	}
}

func TestPlanNilDAG(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	if _, err := s.Plan(nil, 0); err == nil {
		t.Fatal("nil DAG accepted")
	}
}

// TestSensorFusionRunsBranchesInParallel: the two perception branches of
// the fusion DAG overlap in time on a heterogeneous platform.
func TestSensorFusionRunsBranchesInParallel(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	plan, err := s.Plan(tasks.SensorFusion(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cam, _ := plan.Assignment("camera-detect")
	lid, _ := plan.Assignment("lidar-cluster")
	overlap := cam.Start < lid.Finish && lid.Start < cam.Finish
	if !overlap {
		t.Fatalf("branches serialized: camera [%v,%v] lidar [%v,%v]",
			cam.Start, cam.Finish, lid.Start, lid.Finish)
	}
	fuse, _ := plan.Assignment("fuse")
	if fuse.Start < cam.Finish || fuse.Start < lid.Finish {
		t.Fatal("fusion started before both branches finished")
	}
}
