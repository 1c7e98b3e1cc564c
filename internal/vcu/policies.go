package vcu

import (
	"fmt"
	"time"

	"repro/internal/tasks"
)

// Policy chooses device placements for a DAG. Implementations must not
// mutate executors — they plan against tentative state only.
type Policy interface {
	// Name identifies the policy in reports and benchmarks.
	Name() string
	// Plan places every task of the DAG onto the given devices.
	Plan(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error)
}

// scratchPolicy is implemented by the built-in policies: plan is Plan
// building on a caller-owned planner, so a DSF reuses one planner's arrays
// across every plan it makes.
type scratchPolicy interface {
	plan(p *planner, dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error)
}

// Policies returns every built-in policy, in ablation order.
func Policies() []Policy {
	return []Policy{RoundRobin{}, GreedyEFT{}, HEFT{}, PowerAware{Slack: 2}}
}

// RoundRobin is the naive baseline: capable devices take turns.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// Plan implements Policy.
func (rr RoundRobin) Plan(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	return rr.plan(new(planner), dag, devices, now)
}

func (RoundRobin) plan(p *planner, dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	order, err := p.begin(dag, devices, now)
	if err != nil {
		return nil, err
	}
	assignments := make([]Assignment, 0, len(order))
	for next, ti := range order {
		cands := p.candidates(ti)
		if len(cands) == 0 {
			return nil, p.unplaceable(ti)
		}
		a, err := p.place(ti, cands[next%len(cands)])
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, a)
	}
	return finishPlan(dag.Name, RoundRobin{}.Name(), now, assignments), nil
}

// GreedyEFT places each ready task on the device with the earliest finish
// time — the locally optimal heuristic.
type GreedyEFT struct{}

// Name implements Policy.
func (GreedyEFT) Name() string { return "greedy-eft" }

// Plan implements Policy.
func (g GreedyEFT) Plan(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	return g.plan(new(planner), dag, devices, now)
}

func (GreedyEFT) plan(p *planner, dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	order, err := p.begin(dag, devices, now)
	if err != nil {
		return nil, err
	}
	assignments, err := p.placeEFT(order)
	if err != nil {
		return nil, err
	}
	return finishPlan(dag.Name, GreedyEFT{}.Name(), now, assignments), nil
}

// HEFT is Heterogeneous Earliest Finish Time: tasks ranked by upward rank
// (critical-path distance to the DAG exit using mean costs), then placed
// EFT-greedily in rank order.
type HEFT struct{}

// Name implements Policy.
func (HEFT) Name() string { return "heft" }

// Plan implements Policy.
func (h HEFT) Plan(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	return h.plan(new(planner), dag, devices, now)
}

func (HEFT) plan(p *planner, dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	topo, err := p.begin(dag, devices, now)
	if err != nil {
		return nil, err
	}
	if err := p.upwardRanks(topo); err != nil {
		return nil, err
	}
	// Order by decreasing rank; ties by declaration order for determinism.
	// A stable insertion sort of the declaration order: DAGs are small and
	// it needs no closure.
	p.order = p.order[:0]
	for ti := range dag.Tasks {
		at := len(p.order)
		p.order = append(p.order, ti)
		for ; at > 0 && p.ranks[p.order[at-1]] < p.ranks[ti]; at-- {
			p.order[at] = p.order[at-1]
		}
		p.order[at] = ti
	}
	assignments, err := p.placeEFT(p.order)
	if err != nil {
		return nil, err
	}
	return finishPlan(dag.Name, HEFT{}.Name(), now, assignments), nil
}

// PowerAware minimizes task energy subject to not stretching the task's
// finish beyond Slack times its best achievable finish — the knob the
// paper's energy-vs-latency discussion motivates (§III-B).
type PowerAware struct {
	// Slack >= 1 bounds the acceptable latency stretch. Zero means 2.
	Slack float64
}

// Name implements Policy.
func (PowerAware) Name() string { return "power-aware" }

// Plan implements Policy.
func (pa PowerAware) Plan(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	return pa.plan(new(planner), dag, devices, now)
}

func (pa PowerAware) plan(p *planner, dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	slack := pa.Slack
	if slack == 0 {
		slack = 2
	}
	if slack < 1 {
		return nil, fmt.Errorf("vcu: power-aware slack %v must be >= 1", slack)
	}
	order, err := p.begin(dag, devices, now)
	if err != nil {
		return nil, err
	}
	assignments := make([]Assignment, 0, len(order))
	for _, ti := range order {
		cands := p.candidates(ti)
		if len(cands) == 0 {
			return nil, p.unplaceable(ti)
		}
		// First find the best achievable finish.
		var bestFinish time.Duration = -1
		for _, dk := range cands {
			_, finish, _, _, err := p.tryPlace(ti, dk)
			if err != nil {
				continue
			}
			if bestFinish < 0 || finish < bestFinish {
				bestFinish = finish
			}
		}
		if bestFinish < 0 {
			return nil, p.unplaceable(ti)
		}
		deadline := now + time.Duration(float64(bestFinish-now)*slack)
		// Then pick minimum energy among devices meeting the deadline.
		chosen := -1
		var chosenEnergy float64
		var chosenFinish time.Duration
		for _, dk := range cands {
			start, finish, _, _, err := p.tryPlace(ti, dk)
			if err != nil {
				continue
			}
			if finish > deadline {
				continue
			}
			energy := devices[dk].Processor().EnergyJ(finish - start)
			if chosen < 0 || energy < chosenEnergy ||
				(energy == chosenEnergy && finish < chosenFinish) {
				chosen, chosenEnergy, chosenFinish = dk, energy, finish
			}
		}
		if chosen < 0 {
			return nil, p.unplaceable(ti)
		}
		a, err := p.place(ti, chosen)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, a)
	}
	return finishPlan(dag.Name, pa.Name(), now, assignments), nil
}

// UnplaceableError reports a task no online device can run.
type UnplaceableError struct {
	DAG  string
	Task string
}

// Error implements error.
func (e *UnplaceableError) Error() string {
	return fmt.Sprintf("vcu: no capable device for task %s of DAG %s", e.Task, e.DAG)
}

func (p *planner) unplaceable(ti int) *UnplaceableError {
	return &UnplaceableError{DAG: p.dag.Name, Task: p.dag.Tasks[ti].ID}
}

// placeEFT places the tasks in the given order, each on its earliest-finish
// device.
func (p *planner) placeEFT(order []int) ([]Assignment, error) {
	assignments := make([]Assignment, 0, len(order))
	for _, ti := range order {
		dk, err := p.bestEFT(ti)
		if err != nil {
			return nil, err
		}
		a, err := p.place(ti, dk)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, a)
	}
	return assignments, nil
}

// bestEFT returns the capable device with the earliest finish for task ti.
func (p *planner) bestEFT(ti int) (int, error) {
	best := -1
	var bestFinish time.Duration
	for _, dk := range p.candidates(ti) {
		_, finish, _, _, err := p.tryPlace(ti, dk)
		if err != nil {
			continue
		}
		if best < 0 || finish < bestFinish {
			best, bestFinish = dk, finish
		}
	}
	if best < 0 {
		return 0, p.unplaceable(ti)
	}
	return best, nil
}

// upwardRanks fills p.ranks with the HEFT ranks of every task, using mean
// execution and transfer costs over the planner's devices.
func (p *planner) upwardRanks(topo []int) error {
	devices := p.devices
	if cap(p.ranks) < len(topo) {
		p.ranks = make([]float64, len(topo))
	}
	p.ranks = p.ranks[:len(topo)]
	// Walk in reverse topological order so successors are ranked first.
	for k := len(topo) - 1; k >= 0; k-- {
		ti := topo[k]
		t := p.dag.Tasks[ti]
		// Mean execution time over the capable devices.
		var sum float64
		n := 0
		for _, d := range devices {
			if !capable(d, t) {
				continue
			}
			et, err := d.Processor().ExecTime(t.Class, t.GFLOP)
			if err != nil {
				continue
			}
			sum += et.Seconds()
			n++
		}
		if n == 0 {
			return p.unplaceable(ti)
		}
		rank := sum / float64(n)
		if succs := p.c.Succs(ti); len(succs) > 0 {
			transfer := meanTransfer(devices, t.OutputBytes)
			var maxSucc float64
			for _, s := range succs {
				if v := transfer + p.ranks[s]; v > maxSucc {
					maxSucc = v
				}
			}
			rank += maxSucc
		}
		p.ranks[ti] = rank
	}
	return nil
}

// meanTransfer is the mean pairwise transfer time of sizeBytes across
// distinct devices.
func meanTransfer(devices []*Device, sizeBytes float64) float64 {
	if len(devices) < 2 {
		return 0
	}
	var sum float64
	n := 0
	for i, a := range devices {
		for j, b := range devices {
			if i == j {
				continue
			}
			sum += TransferTime(a, b, sizeBytes).Seconds()
			n++
		}
	}
	return sum / float64(n)
}
