package vcu

import (
	"fmt"
	"math"
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

// differentialCorpus is the library DAGs, sorted by name, and 500 seeded
// random DAGs, some with a pinned task, zero-cost tasks or a task no device
// can hold.
func differentialCorpus(t *testing.T) []*tasks.DAG {
	t.Helper()
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
	return dags
}

// phoneVCU is the default VCU plus a phone as a 2ndHEP device.
func phoneVCU(t *testing.T) *MHEP {
	t.Helper()
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
	return m
}

// TestCommitMatchesNaiveReference commits the differential corpus with
// every policy on two twin VCUs — Run, which commits straight from the
// planner's indices, and the DSF's Plan through naiveCommit — and requires
// the same committed plans bit for bit and the same errors. Each commit
// loads the queues the next plan sees, so a drift anywhere would spread.
func TestCommitMatchesNaiveReference(t *testing.T) {
	dags := differentialCorpus(t)
	committed := 0
	for _, pp := range naivePolicies {
		run, ref := phoneVCU(t), phoneVCU(t)
		runDSF, _ := NewDSF(run, pp.policy)
		refDSF, _ := NewDSF(ref, pp.policy)
		for i, d := range dags {
			now := time.Duration(i) * 3 * time.Millisecond
			what := fmt.Sprintf("%s on %s", pp.policy.Name(), d.Name)
			var want *Plan
			plan, wantErr := refDSF.Plan(d, now)
			if wantErr == nil {
				want, wantErr = naiveCommit(ref, d, plan)
			}
			got, gotErr := runDSF.Run(d, now)
			samePlan(t, what+" via Run", got, gotErr, want, wantErr)
			if gotErr == nil && math.Float64bits(got.EnergyJ) != math.Float64bits(want.EnergyJ) {
				t.Fatalf("%s: energy %v, reference %v", what, got.EnergyJ, want.EnergyJ)
			}
			if wantErr == nil {
				committed++
			}
		}
	}
	if committed < 2000 {
		t.Fatalf("only %d plans committed", committed)
	}
}

// TestPoliciesMatchNaiveReference plans the library DAGs and 500 seeded
// random DAGs with every policy three ways — the policy's own plan on a fresh
// planner, a DSF's Plan (one planner reused across all of them, so stale
// scratch would show), and the naive reference — on a VCU whose queues are
// loaded by committing every tenth plan, and requires identical plans. A
// DSF's Estimate must return the plan's makespan and energy bit for bit.
func TestPoliciesMatchNaiveReference(t *testing.T) {
	dags := differentialCorpus(t)
	for _, pp := range naivePolicies {
		m := phoneVCU(t)
		dsf, err := NewDSF(m, pp.policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range dags {
			now := time.Duration(i) * 3 * time.Millisecond
			devices := m.Devices()
			what := fmt.Sprintf("%s on %s", pp.policy.Name(), d.Name)
			want, wantErr := pp.naive(d, devices, now)
			got, gotErr := pp.policy.plan(new(planner), d, nil, devices, now)
			samePlan(t, what, got, gotErr, want, wantErr)
			got, gotErr = dsf.Plan(d, now)
			samePlan(t, what+" via DSF", got, gotErr, want, wantErr)
			makespan, energy, estErr := dsf.Estimate(d, nil, now)
			if fmt.Sprint(estErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: Estimate error %v, reference %v", what, estErr, wantErr)
			}
			if wantErr == nil && (makespan != want.Makespan || math.Float64bits(energy) != math.Float64bits(want.EnergyJ)) {
				t.Fatalf("%s: Estimate (%v, %v), Plan (%v, %v)", what, makespan, energy, want.Makespan, want.EnergyJ)
			}
			if wantErr == nil && i%10 == 0 {
				if _, err := naiveCommit(m, d, got); err != nil {
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
			{nil, m.Devices()},
			{cyclic, nil},
			{cyclic, m.Devices()},
			{tasks.ALPR(), nil},
		} {
			want, wantErr := pp.naive(in.dag, in.devices, 0)
			got, gotErr := pp.policy.plan(new(planner), in.dag, nil, in.devices, 0)
			samePlan(t, pp.policy.Name(), got, gotErr, want, wantErr)
			if gotErr == nil {
				t.Fatalf("%s: no error for bad input", pp.policy.Name())
			}
		}
	}
	bad := PowerAware{Slack: 0.5}
	_, wantErr := naivePowerAware(bad, nil, nil, 0)
	_, gotErr := bad.plan(new(planner), nil, nil, nil, 0)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("slack error %v, reference %v", gotErr, wantErr)
	}
}
