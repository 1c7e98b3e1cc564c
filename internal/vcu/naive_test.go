package vcu

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/tasks"
)

// This file keeps the planner and the four policies as they were before the
// compiled DAG and the index-addressed planner scratch: string-keyed maps
// rebuilt on every call, O(n) Get scans, meanTransfer per successor. The DAG
// queries go through the public tasks API, which package tasks checks against
// its own naive reference. differential_test.go checks the real planner and
// policies against this one.

// naivePlanner tracks tentative device occupancy while a policy builds a plan,
// leaving the real executors untouched until Commit.
type naivePlanner struct {
	now      time.Duration
	devices  []*Device
	byName   map[string]*Device
	slotFree map[string][]time.Duration
	finished map[string]Assignment // taskID -> placed assignment
}

func newNaivePlanner(devices []*Device, now time.Duration) *naivePlanner {
	p := &naivePlanner{
		now:      now,
		devices:  devices,
		byName:   make(map[string]*Device, len(devices)),
		slotFree: make(map[string][]time.Duration, len(devices)),
		finished: make(map[string]Assignment),
	}
	for _, d := range devices {
		p.byName[d.Name()] = d
		slots := d.Processor().Slots
		free := make([]time.Duration, slots)
		for i := range free {
			free[i] = d.Executor().EarliestStart(now)
		}
		p.slotFree[d.Name()] = free
	}
	return p
}

// candidates returns the devices that can run t.
func (p *naivePlanner) candidates(t *tasks.Task) []*Device {
	var out []*Device
	for _, d := range p.devices {
		if capable(d, t) {
			out = append(out, d)
		}
	}
	return out
}

// tryPlace computes (without committing) when t would start and finish on
// dev, given already-placed dependencies.
func (p *naivePlanner) tryPlace(dag *tasks.DAG, t *tasks.Task, dev *Device) (start, finish, transferWait time.Duration, err error) {
	exec, err := dev.Processor().ExecTime(t.Class, t.GFLOP)
	if err != nil {
		return 0, 0, 0, err
	}
	ready := p.now
	for _, depID := range t.Deps {
		dep, ok := p.finished[depID]
		if !ok {
			return 0, 0, 0, fmt.Errorf("vcu: dependency %s of %s not yet placed", depID, t.ID)
		}
		depTask, _ := dag.Get(depID)
		depDev := p.byName[dep.Device]
		arrive := dep.Finish + TransferTime(depDev, dev, depTask.OutputBytes)
		if arrive > ready {
			ready = arrive
		}
	}
	slot := earliestSlot(p.slotFree[dev.Name()])
	start = p.slotFree[dev.Name()][slot]
	if ready > start {
		transferWait = 0
		start = ready
	}
	if start < p.now {
		start = p.now
	}
	// TransferWait is the portion of waiting attributable to data arrival
	// beyond device availability.
	if avail := p.slotFree[dev.Name()][slot]; ready > avail {
		transferWait = ready - maxDuration(avail, p.now)
		if transferWait < 0 {
			transferWait = 0
		}
	}
	return start, start + exec, transferWait, nil
}

// place commits t to dev inside the tentative plan.
func (p *naivePlanner) place(dag *tasks.DAG, t *tasks.Task, dev *Device) (Assignment, error) {
	start, finish, wait, err := p.tryPlace(dag, t, dev)
	if err != nil {
		return Assignment{}, err
	}
	slot := earliestSlot(p.slotFree[dev.Name()])
	p.slotFree[dev.Name()][slot] = finish
	a := Assignment{
		TaskID:       t.ID,
		Device:       dev.Name(),
		Start:        start,
		Finish:       finish,
		TransferWait: wait,
		EnergyJ:      dev.Processor().EnergyJ(finish - start),
	}
	p.finished[t.ID] = a
	return a, nil
}

func naiveRoundRobin(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	order, err := naiveValidatePlanInput(dag, devices)
	if err != nil {
		return nil, err
	}
	p := newNaivePlanner(devices, now)
	next := 0
	var assignments []Assignment
	for _, t := range order {
		cands := p.candidates(t)
		if len(cands) == 0 {
			return nil, &UnplaceableError{DAG: dag.Name, Task: t.ID}
		}
		dev := cands[next%len(cands)]
		next++
		a, err := p.place(dag, t, dev)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, a)
	}
	return naiveFinishPlan(dag.Name, RoundRobin{}.Name(), now, assignments), nil
}

func naiveGreedyEFT(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	order, err := naiveValidatePlanInput(dag, devices)
	if err != nil {
		return nil, err
	}
	p := newNaivePlanner(devices, now)
	var assignments []Assignment
	for _, t := range order {
		dev, err := naiveBestEFT(p, dag, t)
		if err != nil {
			return nil, err
		}
		a, err := p.place(dag, t, dev)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, a)
	}
	return naiveFinishPlan(dag.Name, GreedyEFT{}.Name(), now, assignments), nil
}

func naiveHEFT(dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	if _, err := naiveValidatePlanInput(dag, devices); err != nil {
		return nil, err
	}
	ranks, err := naiveUpwardRanks(dag, devices)
	if err != nil {
		return nil, err
	}
	// Order by decreasing rank; ties by declaration order for determinism.
	pos := make(map[string]int, len(dag.Tasks))
	for i, t := range dag.Tasks {
		pos[t.ID] = i
	}
	order := append([]*tasks.Task(nil), dag.Tasks...)
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := ranks[order[i].ID], ranks[order[j].ID]
		if ri != rj {
			return ri > rj
		}
		return pos[order[i].ID] < pos[order[j].ID]
	})
	p := newNaivePlanner(devices, now)
	var assignments []Assignment
	for _, t := range order {
		dev, err := naiveBestEFT(p, dag, t)
		if err != nil {
			return nil, err
		}
		a, err := p.place(dag, t, dev)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, a)
	}
	return naiveFinishPlan(dag.Name, HEFT{}.Name(), now, assignments), nil
}

func naivePowerAware(pa PowerAware, dag *tasks.DAG, devices []*Device, now time.Duration) (*Plan, error) {
	slack := pa.Slack
	if slack == 0 {
		slack = 2
	}
	if slack < 1 {
		return nil, fmt.Errorf("vcu: power-aware slack %v must be >= 1", slack)
	}
	order, err := naiveValidatePlanInput(dag, devices)
	if err != nil {
		return nil, err
	}
	p := newNaivePlanner(devices, now)
	var assignments []Assignment
	for _, t := range order {
		cands := p.candidates(t)
		if len(cands) == 0 {
			return nil, &UnplaceableError{DAG: dag.Name, Task: t.ID}
		}
		// First find the best achievable finish.
		var bestFinish time.Duration = -1
		for _, dev := range cands {
			_, finish, _, err := p.tryPlace(dag, t, dev)
			if err != nil {
				continue
			}
			if bestFinish < 0 || finish < bestFinish {
				bestFinish = finish
			}
		}
		if bestFinish < 0 {
			return nil, &UnplaceableError{DAG: dag.Name, Task: t.ID}
		}
		deadline := now + time.Duration(float64(bestFinish-now)*slack)
		// Then pick minimum energy among devices meeting the deadline.
		var chosen *Device
		var chosenEnergy float64
		var chosenFinish time.Duration
		for _, dev := range cands {
			start, finish, _, err := p.tryPlace(dag, t, dev)
			if err != nil {
				continue
			}
			if finish > deadline {
				continue
			}
			energy := dev.Processor().EnergyJ(finish - start)
			if chosen == nil || energy < chosenEnergy ||
				(energy == chosenEnergy && finish < chosenFinish) {
				chosen, chosenEnergy, chosenFinish = dev, energy, finish
			}
		}
		if chosen == nil {
			return nil, &UnplaceableError{DAG: dag.Name, Task: t.ID}
		}
		a, err := p.place(dag, t, chosen)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, a)
	}
	return naiveFinishPlan(dag.Name, pa.Name(), now, assignments), nil
}

// naiveFinishPlan assembles plan-level statistics.
func naiveFinishPlan(dagName, policy string, now time.Duration, assignments []Assignment) *Plan {
	plan := &Plan{DAG: dagName, Policy: policy, Assignments: assignments}
	var last time.Duration
	for _, a := range assignments {
		if a.Finish > last {
			last = a.Finish
		}
		plan.EnergyJ += a.EnergyJ
	}
	if last > now {
		plan.Makespan = last - now
	}
	return plan
}

func naiveValidatePlanInput(dag *tasks.DAG, devices []*Device) ([]*tasks.Task, error) {
	if dag == nil {
		return nil, fmt.Errorf("vcu: nil DAG")
	}
	if err := dag.Validate(); err != nil {
		return nil, err
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("vcu: no devices to schedule onto")
	}
	return dag.TopoOrder()
}

// naiveBestEFT returns the capable device with the earliest finish for t.
func naiveBestEFT(p *naivePlanner, dag *tasks.DAG, t *tasks.Task) (*Device, error) {
	cands := p.candidates(t)
	if len(cands) == 0 {
		return nil, &UnplaceableError{DAG: dag.Name, Task: t.ID}
	}
	var best *Device
	var bestFinish time.Duration
	for _, dev := range cands {
		_, finish, _, err := p.tryPlace(dag, t, dev)
		if err != nil {
			continue
		}
		if best == nil || finish < bestFinish {
			best, bestFinish = dev, finish
		}
	}
	if best == nil {
		return nil, &UnplaceableError{DAG: dag.Name, Task: t.ID}
	}
	return best, nil
}

// naiveUpwardRanks computes HEFT ranks with mean execution and transfer costs.
func naiveUpwardRanks(dag *tasks.DAG, devices []*Device) (map[string]float64, error) {
	meanExec := func(t *tasks.Task) (float64, error) {
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
			return 0, &UnplaceableError{DAG: dag.Name, Task: t.ID}
		}
		return sum / float64(n), nil
	}
	meanTransfer := func(t *tasks.Task) float64 {
		if len(devices) < 2 {
			return 0
		}
		// Mean pairwise transfer of t's output across distinct devices.
		var sum float64
		n := 0
		for i, a := range devices {
			for j, b := range devices {
				if i == j {
					continue
				}
				sum += TransferTime(a, b, t.OutputBytes).Seconds()
				n++
			}
		}
		return sum / float64(n)
	}

	order, err := dag.TopoOrder()
	if err != nil {
		return nil, err
	}
	ranks := make(map[string]float64, len(order))
	// Walk in reverse topological order so successors are ranked first.
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		w, err := meanExec(t)
		if err != nil {
			return nil, err
		}
		var maxSucc float64
		for _, succID := range dag.Successors(t.ID) {
			if v := meanTransfer(t) + ranks[succID]; v > maxSucc {
				maxSucc = v
			}
		}
		ranks[t.ID] = w + maxSucc
	}
	return ranks, nil
}

// naiveCommit is the DSF's commit as it was before it committed from
// indices, minus its spans and metrics: every assignment resolves its device
// through MHEP.Device and its task through DAG.Get, every dependency through
// a string-keyed finish map, Plan.Assignment and MHEP.Device again, and the
// committed plan is built afresh.
func naiveCommit(m *MHEP, dag *tasks.DAG, plan *Plan) (*Plan, error) {
	if plan == nil {
		return nil, fmt.Errorf("vcu: nil plan")
	}
	committed := &Plan{DAG: plan.DAG, Policy: plan.Policy}
	finishOf := make(map[string]time.Duration, len(plan.Assignments))
	for _, a := range plan.Assignments {
		dev, err := m.Device(a.Device)
		if err != nil {
			return nil, err
		}
		t, ok := dag.Get(a.TaskID)
		if !ok {
			return nil, fmt.Errorf("vcu: plan task %s not in DAG %s", a.TaskID, dag.Name)
		}
		ready := a.Start
		for _, depID := range t.Deps {
			depFinish, ok := finishOf[depID]
			if !ok {
				return nil, fmt.Errorf("vcu: plan for %s commits %s before its dependency %s", dag.Name, t.ID, depID)
			}
			depAssign, _ := assignmentOf(plan, depID)
			depDev, err := m.Device(depAssign.Device)
			if err != nil {
				return nil, err
			}
			depTask, _ := dag.Get(depID)
			if arrive := depFinish + TransferTime(depDev, dev, depTask.OutputBytes); arrive > ready {
				ready = arrive
			}
		}
		start, finish, err := dev.Executor().Submit(ready, t.Class, t.GFLOP)
		if err != nil {
			return nil, fmt.Errorf("commit %s on %s: %w", t.ID, dev.Name(), err)
		}
		finishOf[t.ID] = finish
		committed.Assignments = append(committed.Assignments, Assignment{
			TaskID:  t.ID,
			Device:  dev.Name(),
			Start:   start,
			Finish:  finish,
			EnergyJ: dev.Processor().EnergyJ(finish - start),
		})
	}
	if len(committed.Assignments) > 0 {
		base := committed.Assignments[0].Start
		var last time.Duration
		for _, a := range committed.Assignments {
			if a.Start < base {
				base = a.Start
			}
			if a.Finish > last {
				last = a.Finish
			}
			committed.EnergyJ += a.EnergyJ
		}
		committed.Makespan = last - base
	}
	return committed, nil
}
