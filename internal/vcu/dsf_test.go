package vcu

import (
	"errors"
	"reflect"
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
		md, _ := assignmentOf(plan, "motion-detect")
		pd, _ := assignmentOf(plan, "plate-detect")
		pr, _ := assignmentOf(plan, "plate-recognize")
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
	for _, d := range s.mhep.Devices() {
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
	for _, d := range s.mhep.Devices() {
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
	// The committed plan is the DSF's scratch: read it before the next run.
	a1, _ := assignmentOf(p1, "ped-detect")
	p2, err := s.Run(tasks.PedestrianAlert(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := assignmentOf(p2, "ped-detect")
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
	a, _ := assignmentOf(plan, "motion-detect")
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

func TestSecondLevelDeviceRelievesLoad(t *testing.T) {
	// With the GPU/ASIC saturated, adding a phone should absorb some DNN
	// work or at least not slow things down.
	base := newDSF(t, GreedyEFT{})
	with2nd := newDSF(t, GreedyEFT{})
	phone, _ := hardware.Lookup(hardware.DevicePhone)
	if err := with2nd.mhep.AddDevice(phone, SecondLevel, WiFiIO()); err != nil {
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
	cam, _ := assignmentOf(plan, "camera-detect")
	lid, _ := assignmentOf(plan, "lidar-cluster")
	overlap := cam.Start < lid.Finish && lid.Start < cam.Finish
	if !overlap {
		t.Fatalf("branches serialized: camera [%v,%v] lidar [%v,%v]",
			cam.Start, cam.Finish, lid.Start, lid.Finish)
	}
	fuse, _ := assignmentOf(plan, "fuse")
	if fuse.Start < cam.Finish || fuse.Start < lid.Finish {
		t.Fatal("fusion started before both branches finished")
	}
}

// TestPlansSurviveLaterPlans keeps a plan from DSF.Plan and one a policy
// made on a fresh planner, then plans and estimates other DAGs on the same
// DSF (which reuses one planner's scratch): both kept plans must be
// unchanged.
func TestPlansSurviveLaterPlans(t *testing.T) {
	for _, policy := range Policies() {
		s := newDSF(t, policy)
		viaDSF, err := s.Plan(tasks.ALPR(), 0)
		if err != nil {
			t.Fatal(err)
		}
		viaPolicy, err := policy.plan(new(planner), tasks.ALPR(), nil, s.mhep.Devices(), 0)
		if err != nil {
			t.Fatal(err)
		}
		clone := func(p *Plan) *Plan {
			c := *p
			c.Assignments = append([]Assignment(nil), p.Assignments...)
			return &c
		}
		wantDSF, wantPolicy := clone(viaDSF), clone(viaPolicy)
		for _, d := range []*tasks.DAG{tasks.SensorFusion(), tasks.PedestrianAlert(), tasks.ALPR()} {
			if _, err := s.Plan(d, time.Second); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Estimate(d, nil, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			if _, err := policy.plan(new(planner), d, nil, s.mhep.Devices(), 3*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(viaDSF, wantDSF) {
			t.Fatalf("%s: DSF.Plan result changed by later plans:\n got %+v\nwant %+v", policy.Name(), viaDSF, wantDSF)
		}
		if !reflect.DeepEqual(viaPolicy, wantPolicy) {
			t.Fatalf("%s: policy plan changed by later plans:\n got %+v\nwant %+v", policy.Name(), viaPolicy, wantPolicy)
		}
	}
}

// TestAddDeviceAfterPlans adds a device to a platform a DSF has already
// planned on: the next plan must see it. Scrambling the slice Devices()
// returned must change neither the platform's device order nor a plan.
func TestAddDeviceAfterPlans(t *testing.T) {
	s := newDSF(t, GreedyEFT{})
	m := s.mhep
	dag := tasks.ALPR()
	dag.Tasks[0].Pinned = hardware.DevicePhone
	if _, err := s.Plan(dag, 0); err == nil {
		t.Fatal("planned a task pinned to a device not yet added")
	}
	phone, err := hardware.Lookup(hardware.DevicePhone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddDevice(phone, SecondLevel, WiFiIO()); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan(dag, 0)
	if err != nil {
		t.Fatalf("the device added after planning is not planned on: %v", err)
	}
	if a, _ := assignmentOf(plan, dag.Tasks[0].ID); a.Device != hardware.DevicePhone {
		t.Fatalf("pinned task placed on %s, want %s", a.Device, hardware.DevicePhone)
	}

	devs := m.Devices()
	want := make([]string, len(devs))
	for i, d := range devs {
		want[i] = d.Name()
	}
	for i := range devs {
		if i > 0 && want[i-1] >= want[i] {
			t.Fatalf("Devices() not in name order: %v", want)
		}
	}
	ref, err := s.Plan(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(devs)-1; i < j; i, j = i+1, j-1 {
		devs[i], devs[j] = devs[j], devs[i]
	}
	devs[0] = nil
	for i, d := range m.Devices() {
		if d == nil || d.Name() != want[i] {
			t.Fatalf("scrambling the Devices() slice reordered the platform: device %d is %v, want %s", i, d, want[i])
		}
	}
	got, err := s.Plan(tasks.ALPR(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("scrambling the Devices() slice changed a plan:\n got %+v\nwant %+v", got, ref)
	}
}

// assignmentOf returns the first assignment of taskID in p.
func assignmentOf(p *Plan, taskID string) (Assignment, bool) {
	for _, a := range p.Assignments {
		if a.TaskID == taskID {
			return a, true
		}
	}
	return Assignment{}, false
}
