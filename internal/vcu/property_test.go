package vcu

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tasks"
)

// Property tests: every policy, on randomized DAGs, must produce plans
// that (a) place every task exactly once on a capable device,
// (b) respect dependency ordering in time, (c) never overlap two tasks in
// the same device slot beyond its concurrency, and (d) commit to the same
// dependency-safe ordering.

func checkPlanInvariants(t *testing.T, dag *tasks.DAG, plan *Plan, m *MHEP) {
	t.Helper()
	if len(plan.Assignments) != len(dag.Tasks) {
		t.Fatalf("plan has %d assignments for %d tasks", len(plan.Assignments), len(dag.Tasks))
	}
	seen := map[string]Assignment{}
	for _, a := range plan.Assignments {
		if _, dup := seen[a.TaskID]; dup {
			t.Fatalf("task %s placed twice", a.TaskID)
		}
		seen[a.TaskID] = a
		task, ok := dag.Get(a.TaskID)
		if !ok {
			t.Fatalf("assignment for unknown task %s", a.TaskID)
		}
		dev, err := m.Device(a.Device)
		if err != nil {
			t.Fatalf("assignment to unknown device %s", a.Device)
		}
		if !capable(dev, task) {
			t.Fatalf("task %s placed on incapable device %s", a.TaskID, a.Device)
		}
		if a.Finish < a.Start {
			t.Fatalf("task %s finishes before it starts", a.TaskID)
		}
	}
	// Dependencies respected.
	for _, task := range dag.Tasks {
		a := seen[task.ID]
		for _, dep := range task.Deps {
			if seen[dep].Finish > a.Start {
				t.Fatalf("task %s starts at %v before dep %s finishes at %v",
					task.ID, a.Start, dep, seen[dep].Finish)
			}
		}
	}
	// Slot capacity: at any assignment boundary, concurrent tasks on a
	// device never exceed its slots.
	byDevice := map[string][]Assignment{}
	for _, a := range plan.Assignments {
		byDevice[a.Device] = append(byDevice[a.Device], a)
	}
	for devName, asgs := range byDevice {
		dev, _ := m.Device(devName)
		slots := dev.Processor().Slots
		for _, probe := range asgs {
			overlapping := 0
			for _, other := range asgs {
				if other.Start <= probe.Start && probe.Start < other.Finish {
					overlapping++
				}
			}
			if overlapping > slots {
				t.Fatalf("device %s (%d slots) runs %d tasks at %v",
					devName, slots, overlapping, probe.Start)
			}
		}
	}
}

func TestPlanInvariantsOnRandomDAGs(t *testing.T) {
	rng := sim.NewRNG(99)
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy.Name(), func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				dag, err := tasks.RandomDAG(fmt.Sprintf("rand-%d", trial), tasks.RandomDAGConfig{}, rng.Fork())
				if err != nil {
					t.Fatal(err)
				}
				m, err := DefaultVCU()
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewDSF(m, policy)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := s.Plan(dag, time.Duration(trial)*time.Millisecond)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				checkPlanInvariants(t, dag, plan, m)
			}
		})
	}
}

func TestCommitRespectsDepsOnRandomDAGs(t *testing.T) {
	rng := sim.NewRNG(123)
	for trial := 0; trial < 20; trial++ {
		dag, err := tasks.RandomDAG(fmt.Sprintf("rand-%d", trial), tasks.RandomDAGConfig{}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		m, _ := DefaultVCU()
		s, _ := NewDSF(m, GreedyEFT{})
		committed, err := s.Run(dag, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		finish := map[string]time.Duration{}
		for _, a := range committed.Assignments {
			finish[a.TaskID] = a.Finish
		}
		for _, task := range dag.Tasks {
			a, ok := assignmentOf(committed, task.ID)
			if !ok {
				t.Fatalf("trial %d: task %s missing from committed plan", trial, task.ID)
			}
			for _, dep := range task.Deps {
				if finish[dep] > a.Start {
					t.Fatalf("trial %d: committed %s at %v before dep %s at %v",
						trial, task.ID, a.Start, dep, finish[dep])
				}
			}
		}
	}
}

// TestMakespanNeverBelowCriticalPathBound: no schedule can beat the
// critical path executed entirely on the fastest device for each class.
func TestMakespanNeverBelowCriticalPathBound(t *testing.T) {
	rng := sim.NewRNG(321)
	for trial := 0; trial < 15; trial++ {
		dag, err := tasks.RandomDAG(fmt.Sprintf("rand-%d", trial), tasks.RandomDAGConfig{}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		m, _ := DefaultVCU()
		s, _ := NewDSF(m, HEFT{})
		plan, err := s.Plan(dag, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Lower bound: for each task, its fastest exec anywhere; take the
		// max over dependency chains.
		fastest := map[string]time.Duration{}
		for _, task := range dag.Tasks {
			best := time.Duration(-1)
			for _, d := range m.Devices() {
				et, err := d.Processor().ExecTime(task.Class, task.GFLOP)
				if err != nil {
					continue
				}
				if best < 0 || et < best {
					best = et
				}
			}
			fastest[task.ID] = best
		}
		order, _ := dag.TopoOrder()
		chain := map[string]time.Duration{}
		var bound time.Duration
		for _, task := range order {
			var maxDep time.Duration
			for _, dep := range task.Deps {
				if chain[dep] > maxDep {
					maxDep = chain[dep]
				}
			}
			chain[task.ID] = maxDep + fastest[task.ID]
			if chain[task.ID] > bound {
				bound = chain[task.ID]
			}
		}
		if plan.Makespan < bound {
			t.Fatalf("trial %d: makespan %v beats physical lower bound %v", trial, plan.Makespan, bound)
		}
	}
}

func TestRandomDAGGeneratorValidity(t *testing.T) {
	rng := sim.NewRNG(555)
	for i := 0; i < 50; i++ {
		dag, err := tasks.RandomDAG("x", tasks.RandomDAGConfig{}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		if err := dag.Validate(); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	if _, err := tasks.RandomDAG("x", tasks.RandomDAGConfig{}, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := tasks.RandomDAG("x", tasks.RandomDAGConfig{MinTasks: 5, MaxTasks: 2}, rng); err == nil {
		t.Fatal("bad bounds accepted")
	}
}
