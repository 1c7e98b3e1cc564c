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

// planner tracks tentative device occupancy while a policy builds a plan,
// leaving the real executors untouched until the DSF commits. Its state is
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

	// assign collects the plan's assignments in placement order, at names
	// each one's task and device by index for the DSF's commit, and out is
	// the plan finish fills; all three are overwritten by the next plan.
	assign []Assignment
	at     []placement
	out    Plan
}

// placement is one assignment in index form: the task's position in
// DAG.Tasks and the device it runs on.
type placement struct {
	task int
	dev  *Device
}

// begin validates the plan input (DAG, then devices — the order callers see
// errors in), resets the planner for it and returns the DAG's topological
// order as task indices. c is dag's compiled form, or nil to take it here.
func (p *planner) begin(dag *tasks.DAG, c *tasks.Compiled, devices []*Device, now time.Duration) ([]int, error) {
	if dag == nil {
		return nil, fmt.Errorf("vcu: nil DAG")
	}
	if c == nil {
		c = dag.Compiled()
	}
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
	p.assign, p.at = p.assign[:0], p.at[:0]
	order, _ := c.Order() // a valid DAG has one
	return order, nil
}

// capable reports whether dev can run t at all.
func capable(dev *Device, t *tasks.Task) bool {
	if t.Pinned != "" && t.Pinned != dev.Name() {
		return false
	}
	if dev.rate(t.Class) <= 0 {
		return false
	}
	return dev.Processor().MemoryMB >= t.MemoryMB
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
	exec, err := dev.execTime(t.Class, t.GFLOP)
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

// place commits task ti to device dk inside the tentative plan and appends
// its assignment.
func (p *planner) place(ti, dk int) error {
	start, finish, wait, slot, err := p.tryPlace(ti, dk)
	if err != nil {
		return err
	}
	dev := p.devices[dk]
	p.slotFree[p.slotOff[dk]+slot] = finish
	p.placed[ti], p.devOf[ti], p.finish[ti] = true, dk, finish
	p.assign = append(p.assign, Assignment{
		TaskID:       p.dag.Tasks[ti].ID,
		Device:       dev.Name(),
		Start:        start,
		Finish:       finish,
		TransferWait: wait,
		EnergyJ:      dev.Processor().EnergyJ(finish - start),
	})
	p.at = append(p.at, placement{ti, dev})
	return nil
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

// finishPlan fills the planner's plan from its assignments and returns it.
func (p *planner) finishPlan(policy string) *Plan {
	p.out = Plan{DAG: p.dag.Name, Policy: policy, Assignments: p.assign}
	var last time.Duration
	for _, a := range p.assign {
		if a.Finish > last {
			last = a.Finish
		}
		p.out.EnergyJ += a.EnergyJ
	}
	if last > p.now {
		p.out.Makespan = last - p.now
	}
	return &p.out
}
