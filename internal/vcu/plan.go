package vcu

import (
	"fmt"
	"time"

	"repro/internal/tasks"
)

// Assignment places one task on one device at a planned time.
type Assignment struct {
	TaskID string
	Device string
	// Start and Finish are absolute virtual times.
	Start  time.Duration
	Finish time.Duration
	// TransferWait is time spent waiting on cross-device input movement.
	TransferWait time.Duration
	// EnergyJ is the active energy this task costs on its device.
	EnergyJ float64
}

// Plan is a complete placement of a DAG.
type Plan struct {
	DAG         string
	Policy      string
	Assignments []Assignment
	// Makespan is finish of the last task minus planning time.
	Makespan time.Duration
	// EnergyJ is the summed active energy across assignments.
	EnergyJ float64
}

// Assignment returns the placement for a task ID.
func (p *Plan) Assignment(taskID string) (Assignment, bool) {
	for _, a := range p.Assignments {
		if a.TaskID == taskID {
			return a, true
		}
	}
	return Assignment{}, false
}

// planner tracks tentative device occupancy while a policy builds a plan,
// leaving the real executors untouched until Commit. Its state is
// index-addressed — tasks by their position in DAG.Tasks (the compiled
// DAG's index space), devices by their position in the device list — and
// the backing arrays are reused from plan to plan: a DSF owns one planner.
type planner struct {
	now     time.Duration
	dag     *tasks.DAG
	c       *tasks.Compiled
	devices []*Device

	// slotFree[slotOff[k]:slotOff[k+1]] are the tentative free times of
	// devices[k]'s slots.
	slotOff  []int
	slotFree []time.Duration

	// Per task: whether it is placed, on which device, finishing when.
	placed []bool
	devOf  []int
	finish []time.Duration

	cands []int     // candidates' result
	ranks []float64 // HEFT upward ranks
	order []int     // HEFT placement order
}

// begin validates the plan input (DAG, then devices — the order callers see
// errors in), resets the planner for it and returns the DAG's topological
// order as task indices.
func (p *planner) begin(dag *tasks.DAG, devices []*Device, now time.Duration) ([]int, error) {
	if dag == nil {
		return nil, fmt.Errorf("vcu: nil DAG")
	}
	c := dag.Compiled()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("vcu: no devices to schedule onto")
	}
	p.now, p.dag, p.c, p.devices = now, dag, c, devices
	p.slotOff, p.slotFree = p.slotOff[:0], p.slotFree[:0]
	for _, d := range devices {
		p.slotOff = append(p.slotOff, len(p.slotFree))
		free := d.Executor().EarliestStart(now)
		for s := d.Processor().Slots; s > 0; s-- {
			p.slotFree = append(p.slotFree, free)
		}
	}
	p.slotOff = append(p.slotOff, len(p.slotFree))
	n := len(dag.Tasks)
	if cap(p.placed) < n {
		p.placed, p.devOf, p.finish = make([]bool, n), make([]int, n), make([]time.Duration, n)
	}
	p.placed, p.devOf, p.finish = p.placed[:n], p.devOf[:n], p.finish[:n]
	for i := range p.placed {
		p.placed[i] = false
	}
	order, _ := c.Order() // a valid DAG has one
	return order, nil
}

// capable reports whether dev can run t at all.
func capable(dev *Device, t *tasks.Task) bool {
	if !dev.Online() {
		return false
	}
	if t.Pinned != "" && t.Pinned != dev.Name() {
		return false
	}
	proc := dev.Processor()
	if !proc.CanRun(t.Class) {
		return false
	}
	return proc.MemoryMB >= t.MemoryMB
}

// candidates returns the indices of the devices that can run task ti. The
// slice is the planner's scratch, valid until the next call.
func (p *planner) candidates(ti int) []int {
	p.cands = p.cands[:0]
	for k, d := range p.devices {
		if capable(d, p.dag.Tasks[ti]) {
			p.cands = append(p.cands, k)
		}
	}
	return p.cands
}

// tryPlace computes (without committing) when task ti would start and
// finish on device dk, given already-placed dependencies, and which of the
// device's slots it would take.
func (p *planner) tryPlace(ti, dk int) (start, finish, transferWait time.Duration, slot int, err error) {
	t, dev := p.dag.Tasks[ti], p.devices[dk]
	exec, err := dev.Processor().ExecTime(t.Class, t.GFLOP)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ready := p.now
	for j, dep := range p.c.Deps(ti) {
		if !p.placed[dep] {
			return 0, 0, 0, 0, fmt.Errorf("vcu: dependency %s of %s not yet placed", t.Deps[j], t.ID)
		}
		arrive := p.finish[dep] + TransferTime(p.devices[p.devOf[dep]], dev, p.dag.Tasks[dep].OutputBytes)
		if arrive > ready {
			ready = arrive
		}
	}
	free := p.slotFree[p.slotOff[dk]:p.slotOff[dk+1]]
	slot = earliestSlot(free)
	avail := maxDuration(free[slot], p.now)
	start = maxDuration(avail, ready)
	// TransferWait is the portion of waiting attributable to data arrival
	// beyond device availability.
	if ready > avail {
		transferWait = ready - avail
	}
	return start, start + exec, transferWait, slot, nil
}

// place commits task ti to device dk inside the tentative plan.
func (p *planner) place(ti, dk int) (Assignment, error) {
	start, finish, wait, slot, err := p.tryPlace(ti, dk)
	if err != nil {
		return Assignment{}, err
	}
	dev := p.devices[dk]
	p.slotFree[p.slotOff[dk]+slot] = finish
	p.placed[ti], p.devOf[ti], p.finish[ti] = true, dk, finish
	return Assignment{
		TaskID:       p.dag.Tasks[ti].ID,
		Device:       dev.Name(),
		Start:        start,
		Finish:       finish,
		TransferWait: wait,
		EnergyJ:      dev.Processor().EnergyJ(finish - start),
	}, nil
}

func earliestSlot(free []time.Duration) int {
	best := 0
	for i := 1; i < len(free); i++ {
		if free[i] < free[best] {
			best = i
		}
	}
	return best
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// finishPlan assembles plan-level statistics.
func finishPlan(dagName, policy string, now time.Duration, assignments []Assignment) *Plan {
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
