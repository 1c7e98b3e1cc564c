package tasks

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"
)

// Compiled is the structural analysis of one DAG content, computed once and
// read by every later Validate/TopoOrder/Successors/CriticalPathGFLOP call
// and by the offload estimator and the vcu planner: the validation verdict,
// the topological order, index-addressed dependency and successor lists,
// the critical path, and the prefix DAGs a split pipeline plans on-board.
// All indices are positions in DAG.Tasks. A Compiled is immutable apart
// from its lazily published prefix DAGs, so vehicles on different shards
// may share one.
//
// Mutation contract: DAG stays a plain struct that callers may copy by
// value and edit in place, so a Compiled is never trusted blindly.
// DAG.Compiled compares the DAG field by field (name, task pointers, IDs,
// names, classes, costs, sizes, pins, dependency lists) against the
// snapshot the analysis was built from and recompiles — re-validating —
// on any difference. Editing a DAG while another goroutine reads it is a
// data race with or without the compiled form.
type Compiled struct {
	// Snapshot of the content the analysis describes.
	name  string
	tasks []*Task // the DAG's task pointers
	snap  []Task  // their field values; Deps copied

	err      error // DAG.Validate verdict
	topoErr  error // DAG.TopoOrder verdict
	deps     [][]int
	succs    [][]int
	order    []int // topological order; nil when topoErr != nil
	pos      []int // pos[i] is the position of task i in order
	critical float64

	prefixes []atomic.Pointer[prefix]
}

// prefix is a prefix DAG and its compiled form, built together.
type prefix struct {
	dag *DAG
	c   *Compiled
}

// Compiled returns the analysis of the DAG's current content, reusing the
// cached one when the content still matches it (an allocation-free field
// compare) and rebuilding it otherwise.
func (d *DAG) Compiled() *Compiled {
	if c := (*Compiled)(atomic.LoadPointer(&d.compiled)); c != nil && c.matches(d) {
		return c
	}
	c := compile(d)
	atomic.StorePointer(&d.compiled, unsafe.Pointer(c))
	return c
}

func (c *Compiled) matches(d *DAG) bool {
	if c.name != d.Name || len(c.tasks) != len(d.Tasks) {
		return false
	}
	for i, t := range d.Tasks {
		if t != c.tasks[i] || !sameTask(t, &c.snap[i]) {
			return false
		}
	}
	return true
}

func sameTask(t, s *Task) bool {
	if t.ID != s.ID || t.Name != s.Name || t.Class != s.Class ||
		t.GFLOP != s.GFLOP || t.InputBytes != s.InputBytes ||
		t.OutputBytes != s.OutputBytes || t.MemoryMB != s.MemoryMB ||
		t.Pinned != s.Pinned || len(t.Deps) != len(s.Deps) {
		return false
	}
	for j, dep := range t.Deps {
		if dep != s.Deps[j] {
			return false
		}
	}
	return true
}

func compile(d *DAG) *Compiled {
	n := len(d.Tasks)
	c := &Compiled{
		name:  d.Name,
		tasks: append([]*Task(nil), d.Tasks...),
		snap:  make([]Task, n),
		deps:  make([][]int, n),
		succs: make([][]int, n),
	}
	// A dependency name resolves to the first task declared with that ID,
	// as DAG.Get does; index[t.ID] != i therefore marks a duplicate.
	index := make(map[string]int, n)
	for i, t := range d.Tasks {
		c.snap[i] = *t
		c.snap[i].Deps = append([]string(nil), t.Deps...)
		if _, dup := index[t.ID]; !dup {
			index[t.ID] = i
		}
	}
	// Successors come out in (task, dependency) declaration order, one
	// entry per dependency edge.
	for i, t := range d.Tasks {
		if len(t.Deps) == 0 {
			continue
		}
		c.deps[i] = make([]int, len(t.Deps))
		for j, dep := range t.Deps {
			di, ok := index[dep]
			if !ok {
				di = -1
			} else {
				c.succs[di] = append(c.succs[di], i)
			}
			c.deps[i][j] = di
		}
	}
	c.topo()
	c.err = c.validate(index)
	if c.topoErr == nil {
		c.prefixes = make([]atomic.Pointer[prefix], n+1)
		c.critical = c.criticalPath()
	}
	return c
}

// topo is Kahn's algorithm taking the earliest-declared ready task at every
// step (the stable tie-break TopoOrder documents). A task with an unknown
// dependency never becomes ready, so such a DAG reports a cycle.
func (c *Compiled) topo() {
	n := len(c.tasks)
	indeg := make([]int, n)
	ready := make([]int, 0, n) // ascending
	for i := range c.tasks {
		indeg[i] = len(c.deps[i])
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, s := range c.succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				at := sort.SearchInts(ready, s)
				ready = append(ready, 0)
				copy(ready[at+1:], ready[at:])
				ready[at] = s
			}
		}
	}
	if len(order) != n {
		c.topoErr = fmt.Errorf("tasks: DAG %s contains a cycle", c.name)
		return
	}
	c.order = order
	c.pos = make([]int, n)
	for k, i := range order {
		c.pos[i] = k
	}
}

// validate runs DAG.Validate's checks in its documented order: name, task
// count, per-task fields and duplicate IDs, dependency resolution, cycles.
func (c *Compiled) validate(index map[string]int) error {
	if c.name == "" {
		return fmt.Errorf("tasks: DAG has no name")
	}
	if len(c.tasks) == 0 {
		return fmt.Errorf("tasks: DAG %s has no tasks", c.name)
	}
	for i, t := range c.tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("DAG %s: %w", c.name, err)
		}
		if index[t.ID] != i {
			return fmt.Errorf("tasks: DAG %s has duplicate task ID %q", c.name, t.ID)
		}
	}
	for i, t := range c.tasks {
		for j, di := range c.deps[i] {
			if di < 0 {
				return fmt.Errorf("tasks: DAG %s task %s depends on unknown %q", c.name, t.ID, t.Deps[j])
			}
		}
	}
	return c.topoErr
}

func (c *Compiled) criticalPath() float64 {
	acc := make([]float64, len(c.tasks))
	var best float64
	for _, i := range c.order {
		var maxDep float64
		for _, di := range c.deps[i] {
			if acc[di] > maxDep {
				maxDep = acc[di]
			}
		}
		acc[i] = maxDep + c.tasks[i].GFLOP
		if acc[i] > best {
			best = acc[i]
		}
	}
	return best
}

// Err is the DAG.Validate verdict for the compiled content.
func (c *Compiled) Err() error { return c.err }

// Order returns the topological order as indices into DAG.Tasks, or the
// cycle error. The slice is shared: callers must not modify it.
func (c *Compiled) Order() ([]int, error) { return c.order, c.topoErr }

// Pos returns task i's position in Order. Valid only when Order succeeds.
func (c *Compiled) Pos(i int) int { return c.pos[i] }

// Deps returns the indices of task i's dependencies, in Task.Deps order;
// -1 marks a dependency naming no task, which only a DAG failing Err has.
// Shared: callers must not modify it.
func (c *Compiled) Deps(i int) []int { return c.deps[i] }

// Succs returns the indices of the tasks depending on task i, one entry per
// dependency edge, in declaration order. Shared: callers must not modify it.
func (c *Compiled) Succs(i int) []int { return c.succs[i] }

// Prefix returns the DAG of the first k tasks of Order, 0 < k <= len(Tasks),
// named "<name>-prefix": the on-board part of a pipeline that splits after
// k tasks, and that DAG's compiled form. Dependencies on tasks outside the
// prefix are dropped (they are satisfied inputs). The tasks are private
// copies, built with their compiled form on first use and then shared by
// every caller, which must not edit them: the form is handed out without
// the check DAG.Compiled makes. Valid only when Order succeeds.
func (c *Compiled) Prefix(k int) (*DAG, *Compiled) {
	slot := &c.prefixes[k]
	if p := slot.Load(); p != nil {
		return p.dag, p.c
	}
	p := &DAG{Name: c.name + "-prefix", Tasks: make([]*Task, k)}
	for q, i := range c.order[:k] {
		cp := c.snap[i]
		cp.Deps = nil
		for j, di := range c.deps[i] {
			if c.pos[di] < k {
				cp.Deps = append(cp.Deps, c.snap[i].Deps[j])
			}
		}
		p.Tasks[q] = &cp
	}
	slot.CompareAndSwap(nil, &prefix{dag: p, c: p.Compiled()})
	built := slot.Load()
	return built.dag, built.c
}
