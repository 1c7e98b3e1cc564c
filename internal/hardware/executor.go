package hardware

import (
	"fmt"
	"time"
)

// Executor models queueing on one processor in virtual time. Each slot runs
// one task at a time; submissions pick the earliest-free slot. The same
// model serves VCU devices and multi-tenant XEdge servers.
type Executor struct {
	proc      *Processor
	slotFree  []time.Duration // earliest time each slot becomes free
	busyTime  time.Duration   // accumulated execution time across slots
	completed int
}

// NewExecutor wraps a validated processor.
func NewExecutor(p *Processor) (*Executor, error) {
	if p == nil {
		return nil, fmt.Errorf("hardware: nil processor")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Executor{proc: p, slotFree: make([]time.Duration, p.Slots)}, nil
}

// Processor returns the underlying device description.
func (e *Executor) Processor() *Processor { return e.proc }

// EarliestStart returns when a task submitted at now could begin executing.
func (e *Executor) EarliestStart(now time.Duration) time.Duration {
	best := e.slotFree[0]
	for _, f := range e.slotFree[1:] {
		if f < best {
			best = f
		}
	}
	if best < now {
		best = now
	}
	return best
}

// EstimateFinish predicts the completion time of class-c work of the given
// size submitted at now, without committing the reservation.
func (e *Executor) EstimateFinish(now time.Duration, c Class, gflop float64) (time.Duration, error) {
	exec, err := e.proc.ExecTime(c, gflop)
	if err != nil {
		return 0, err
	}
	return e.EarliestStart(now) + exec, nil
}

// Submit reserves the earliest-free slot for the work and returns its start
// and finish times.
func (e *Executor) Submit(now time.Duration, c Class, gflop float64) (start, finish time.Duration, err error) {
	exec, err := e.proc.ExecTime(c, gflop)
	if err != nil {
		return 0, 0, err
	}
	slot := 0
	for i := 1; i < len(e.slotFree); i++ {
		if e.slotFree[i] < e.slotFree[slot] {
			slot = i
		}
	}
	start = e.slotFree[slot]
	if start < now {
		start = now
	}
	finish = start + exec
	e.slotFree[slot] = finish
	e.busyTime += exec
	e.completed++
	return start, finish, nil
}

// Completed returns the number of submissions accepted.
func (e *Executor) Completed() int { return e.completed }

// PendingWork returns the total committed busy time still ahead of now
// across all slots — the device's queue depth expressed in virtual time.
// Read-only, so health samplers may call it from the parallel decision
// phase.
func (e *Executor) PendingWork(now time.Duration) time.Duration {
	var sum time.Duration
	for _, f := range e.slotFree {
		if f > now {
			sum += f - now
		}
	}
	return sum
}

// Utilization returns the fraction of [0, horizon] the device's slots were
// executing work, aggregated across slots and capped at 1. Horizon must be
// positive.
func (e *Executor) Utilization(horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	u := float64(e.busyTime) / float64(horizon) / float64(len(e.slotFree))
	if u > 1 {
		u = 1
	}
	return u
}
