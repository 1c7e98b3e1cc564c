package vcu

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/tasks"
)

// naivePolicies pairs each built-in policy with its reference in
// naive_test.go.
var naivePolicies = []struct {
	policy Policy
	naive  func(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error)
}{
	{RoundRobin{}, naiveRoundRobin},
	{GreedyEFT{}, naiveGreedyEFT},
	{HEFT{}, naiveHEFT},
	{PowerAware{Slack: 2}, func(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
		return naivePowerAware(PowerAware{Slack: 2}, dag, devices, now)
	}},
	{PowerAware{Slack: 1}, func(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
		return naivePowerAware(PowerAware{Slack: 1}, dag, devices, now)
	}},
}

// samePlan requires two plan outcomes to be identical: every assignment
// field, makespan, energy and error text.
func samePlan(t *testing.T, what string, got *Plan, gotErr error, want *Plan, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestPoliciesMatchNaiveReference plans the library DAGs and 500 seeded
// random DAGs with every policy three ways — the policy's own Plan (fresh
// planner), a DSF's Plan (one planner reused across all of them, so stale
// scratch would show), and the naive reference — on a VCU whose queues are
// loaded by committing every tenth plan, and requires identical plans.
func TestPoliciesMatchNaiveReference(t *testing.T) {
	rng := sim.NewStream(20260930, 16)
	var dags []*tasks.DAG
	for _, d := range tasks.Library() {
		dags = append(dags, d)
	}
	sort.Slice(dags, func(i, j int) bool { return dags[i].Name < dags[j].Name })
	for i := 0; i < 500; i++ {
		cfg := tasks.RandomDAGConfig{MaxTasks: 16, EdgeProb: 0.05 + 0.9*rng.Float64()}
		d, err := tasks.RandomDAG(fmt.Sprintf("rand-%d", i), cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			d.Tasks[rng.Intn(len(d.Tasks))].Pinned = hardware.DeviceI76700
		}
		if i%11 == 0 {
			// Zero-cost tasks tie HEFT ranks, the case its declaration-order
			// tie-break exists for.
			for _, task := range d.Tasks {
				task.GFLOP, task.OutputBytes = 0, 0
			}
		}
		if i%13 == 0 {
			d.Tasks[0].MemoryMB = 1 << 30 // unplaceable
		}
		dags = append(dags, d)
	}
	for _, pp := range naivePolicies {
		m, err := DefaultVCU()
		if err != nil {
			t.Fatal(err)
		}
		phone, err := hardware.Lookup(hardware.DevicePhone)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDevice(phone, SecondLevel, WiFiIO()); err != nil {
			t.Fatal(err)
		}
		dsf, err := NewDSF(m, pp.policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range dags {
			now := time.Duration(i) * 3 * time.Millisecond
			devices := m.OnlineDevices()
			what := fmt.Sprintf("%s on %s", pp.policy.Name(), d.Name)
			want, wantErr := pp.naive(d, devices, now)
			got, gotErr := pp.policy.Plan(d, devices, now)
			samePlan(t, what, got, gotErr, want, wantErr)
			got, gotErr = dsf.Plan(d, now)
			samePlan(t, what+" via DSF", got, gotErr, want, wantErr)
			if wantErr == nil && i%10 == 0 {
				if _, err := dsf.Commit(d, got); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestPlanErrorOrderMatchesNaiveReference pins the order callers see plan
// input errors in: nil DAG, invalid DAG, no devices, unplaceable task.
func TestPlanErrorOrderMatchesNaiveReference(t *testing.T) {
	m, err := DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	cyclic := &tasks.DAG{Name: "cyc", Tasks: []*tasks.Task{
		{ID: "a", Deps: []string{"b"}}, {ID: "b", Deps: []string{"a"}}}}
	for _, pp := range naivePolicies {
		for _, in := range []struct {
			dag     *tasks.DAG
			devices []*Device
		}{
			{nil, nil},
			{nil, m.OnlineDevices()},
			{cyclic, nil},
			{cyclic, m.OnlineDevices()},
			{tasks.ALPR(), nil},
		} {
			want, wantErr := pp.naive(in.dag, in.devices, 0)
			got, gotErr := pp.policy.Plan(in.dag, in.devices, 0)
			samePlan(t, pp.policy.Name(), got, gotErr, want, wantErr)
			if gotErr == nil {
				t.Fatalf("%s: no error for bad input", pp.policy.Name())
			}
		}
	}
	bad := PowerAware{Slack: 0.5}
	_, wantErr := naivePowerAware(bad, nil, nil, 0)
	_, gotErr := bad.Plan(nil, nil, 0)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("slack error %v, reference %v", gotErr, wantErr)
	}
}
