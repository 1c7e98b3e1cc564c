// Package tasks models the units of computation OpenVDAP schedules: single
// tasks with a compute class and cost, and DAGs of tasks with data
// dependencies. It also carries the library of paper workloads (Table I
// detectors, Inception-v3, the three-stage license-plate pipeline) whose
// cost constants are calibrated against the paper's measurements.
package tasks

import (
	"fmt"
	"unsafe"

	"repro/internal/hardware"
)

// Task is one schedulable unit of work.
type Task struct {
	// ID is unique within a DAG.
	ID string
	// Name is a human-readable label.
	Name string
	// Class selects the hardware efficiency profile.
	Class hardware.Class
	// GFLOP is the computational cost in billions of floating-point ops.
	GFLOP float64
	// InputBytes is data consumed from outside or from predecessors.
	InputBytes float64
	// OutputBytes is data produced for successors or the caller.
	OutputBytes float64
	// MemoryMB is the working-set the executing device must hold.
	MemoryMB float64
	// Deps lists IDs of tasks that must complete first.
	Deps []string
	// Pinned, when non-empty, restricts execution to the named device.
	Pinned string
}

// Validate reports structural errors in the task itself.
func (t *Task) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("tasks: task has no ID")
	}
	if t.GFLOP < 0 {
		return fmt.Errorf("tasks: task %s has negative work", t.ID)
	}
	if t.InputBytes < 0 || t.OutputBytes < 0 {
		return fmt.Errorf("tasks: task %s has negative data size", t.ID)
	}
	if t.MemoryMB < 0 {
		return fmt.Errorf("tasks: task %s has negative memory", t.ID)
	}
	return nil
}

// DAG is a directed acyclic graph of tasks: an application decomposed by
// the DSF task partitioner (paper §IV-B2).
//
// A DAG may be copied by value and edited in place at any time; the
// structural queries below answer from a compiled form that is checked
// against the DAG's content on every call (see Compiled).
type DAG struct {
	Name  string
	Tasks []*Task

	// compiled is the cached *Compiled, read and published atomically so a
	// DAG shared by several goroutines compiles race-free. A plain pointer
	// word rather than atomic.Pointer keeps the struct copyable.
	compiled unsafe.Pointer
}

// Validate checks IDs are unique, dependencies resolve, and no cycle exists.
func (d *DAG) Validate() error { return d.Compiled().Err() }

// Get returns the task with the given ID.
func (d *DAG) Get(id string) (*Task, bool) {
	for _, t := range d.Tasks {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// Roots returns tasks with no dependencies, in declaration order.
func (d *DAG) Roots() []*Task {
	var roots []*Task
	for _, t := range d.Tasks {
		if len(t.Deps) == 0 {
			roots = append(roots, t)
		}
	}
	return roots
}

// Successors returns the IDs of tasks that directly depend on id.
func (d *DAG) Successors(id string) []string {
	c := d.Compiled()
	var out []string
	for i, t := range d.Tasks {
		// Dependencies resolve to the first task declared with the ID.
		if t.ID == id {
			for _, s := range c.succs[i] {
				out = append(out, d.Tasks[s].ID)
			}
			break
		}
	}
	return out
}

// TopoOrder returns the tasks in a dependency-respecting order with stable
// tie-breaking (declaration order). It fails on cycles.
func (d *DAG) TopoOrder() ([]*Task, error) {
	c := d.Compiled()
	if c.topoErr != nil {
		return nil, c.topoErr
	}
	if len(c.order) == 0 {
		return nil, nil
	}
	order := make([]*Task, len(c.order))
	for k, i := range c.order {
		order[k] = d.Tasks[i]
	}
	return order, nil
}

// TotalGFLOP sums the work of every task.
func (d *DAG) TotalGFLOP() float64 {
	var total float64
	for _, t := range d.Tasks {
		total += t.GFLOP
	}
	return total
}

// CriticalPathGFLOP returns the largest cumulative work along any
// dependency chain — the lower bound on makespan with infinite devices of
// equal speed.
func (d *DAG) CriticalPathGFLOP() (float64, error) {
	c := d.Compiled()
	return c.critical, c.topoErr
}

// Clone returns a deep copy of the DAG (tasks and dep slices).
func (d *DAG) Clone() *DAG {
	out := &DAG{Name: d.Name, Tasks: make([]*Task, len(d.Tasks))}
	for i, t := range d.Tasks {
		cp := *t
		cp.Deps = append([]string(nil), t.Deps...)
		out.Tasks[i] = &cp
	}
	return out
}
