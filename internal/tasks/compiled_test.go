package tasks

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/hardware"
	"repro/internal/sim"
)

// The naive* functions are the recomputing bodies DAG's methods had before
// the compiled form: fresh string-keyed maps and a sort per loop step on
// every call. They are the reference the compiled form is checked against.

func naiveValidate(d *DAG) error {
	if d.Name == "" {
		return fmt.Errorf("tasks: DAG has no name")
	}
	if len(d.Tasks) == 0 {
		return fmt.Errorf("tasks: DAG %s has no tasks", d.Name)
	}
	byID := make(map[string]*Task, len(d.Tasks))
	for _, t := range d.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("DAG %s: %w", d.Name, err)
		}
		if _, dup := byID[t.ID]; dup {
			return fmt.Errorf("tasks: DAG %s has duplicate task ID %q", d.Name, t.ID)
		}
		byID[t.ID] = t
	}
	for _, t := range d.Tasks {
		for _, dep := range t.Deps {
			if _, ok := byID[dep]; !ok {
				return fmt.Errorf("tasks: DAG %s task %s depends on unknown %q", d.Name, t.ID, dep)
			}
		}
	}
	if _, err := naiveTopoOrder(d); err != nil {
		return err
	}
	return nil
}

func naiveSuccessors(d *DAG, id string) []string {
	var out []string
	for _, t := range d.Tasks {
		for _, dep := range t.Deps {
			if dep == id {
				out = append(out, t.ID)
			}
		}
	}
	return out
}

func naiveTopoOrder(d *DAG) ([]*Task, error) {
	indeg := make(map[string]int, len(d.Tasks))
	pos := make(map[string]int, len(d.Tasks))
	for i, t := range d.Tasks {
		indeg[t.ID] = len(t.Deps)
		pos[t.ID] = i
	}
	var ready []*Task
	for _, t := range d.Tasks {
		if indeg[t.ID] == 0 {
			ready = append(ready, t)
		}
	}
	var order []*Task
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i].ID] < pos[ready[j].ID] })
		t := ready[0]
		ready = ready[1:]
		order = append(order, t)
		for _, succID := range naiveSuccessors(d, t.ID) {
			indeg[succID]--
			if indeg[succID] == 0 {
				succ, _ := d.Get(succID)
				ready = append(ready, succ)
			}
		}
	}
	if len(order) != len(d.Tasks) {
		return nil, fmt.Errorf("tasks: DAG %s contains a cycle", d.Name)
	}
	return order, nil
}

func naiveCriticalPathGFLOP(d *DAG) (float64, error) {
	order, err := naiveTopoOrder(d)
	if err != nil {
		return 0, err
	}
	acc := make(map[string]float64, len(order))
	var best float64
	for _, t := range order {
		var maxDep float64
		for _, dep := range t.Deps {
			if acc[dep] > maxDep {
				maxDep = acc[dep]
			}
		}
		acc[t.ID] = maxDep + t.GFLOP
		if acc[t.ID] > best {
			best = acc[t.ID]
		}
	}
	return best, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstNaive requires every structural query of d to answer exactly
// as the naive reference does: same error text, same task pointers in the
// same order, same successor lists, same critical path bits.
func checkAgainstNaive(t *testing.T, d *DAG) {
	t.Helper()
	if got, want := errText(d.Validate()), errText(naiveValidate(d)); got != want {
		t.Fatalf("%s: Validate = %s, naive %s", d.Name, got, want)
	}
	got, gotErr := d.TopoOrder()
	want, wantErr := naiveTopoOrder(d)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: TopoOrder error = %s, naive %s", d.Name, errText(gotErr), errText(wantErr))
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: TopoOrder has %d tasks, naive %d", d.Name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: TopoOrder[%d] = %s, naive %s", d.Name, i, got[i].ID, want[i].ID)
		}
	}
	for _, task := range d.Tasks {
		g, w := d.Successors(task.ID), naiveSuccessors(d, task.ID)
		if fmt.Sprint(g) != fmt.Sprint(w) || (g == nil) != (w == nil) {
			t.Fatalf("%s: Successors(%s) = %v, naive %v", d.Name, task.ID, g, w)
		}
	}
	if g := d.Successors("no-such-task"); g != nil {
		t.Fatalf("%s: Successors of an unknown ID = %v", d.Name, g)
	}
	gc, gcErr := d.CriticalPathGFLOP()
	wc, wcErr := naiveCriticalPathGFLOP(d)
	if gc != wc || errText(gcErr) != errText(wcErr) {
		t.Fatalf("%s: CriticalPathGFLOP = %v, %s; naive %v, %s", d.Name, gc, errText(gcErr), wc, errText(wcErr))
	}
}

func TestCompiledMatchesNaiveReference(t *testing.T) {
	for name, d := range Library() {
		if name != d.Name {
			t.Fatalf("library key %s holds DAG %s", name, d.Name)
		}
		checkAgainstNaive(t, d)
	}
	rng := sim.NewStream(20260930, 15)
	for i := 0; i < 500; i++ {
		d, err := RandomDAG(fmt.Sprintf("rand-%d", i), RandomDAGConfig{MaxTasks: 24, EdgeProb: 0.05 + 0.9*rng.Float64()}, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, d)
		// The same DAG declared backwards: the stable tie-break must follow
		// declaration order, not the generator's ID order.
		rev := d.Clone()
		rev.Name += "-rev"
		for a, b := 0, len(rev.Tasks)-1; a < b; a, b = a+1, b-1 {
			rev.Tasks[a], rev.Tasks[b] = rev.Tasks[b], rev.Tasks[a]
		}
		checkAgainstNaive(t, rev)
	}
	// Degenerate and invalid shapes.
	for _, d := range []*DAG{
		{},
		{Name: "empty"},
		{Tasks: []*Task{{ID: "a"}}},
		{Name: "bad-task", Tasks: []*Task{{ID: "a", GFLOP: -1}}},
		{Name: "self", Tasks: []*Task{{ID: "a", Deps: []string{"a"}}}},
		{Name: "cycle", Tasks: []*Task{{ID: "a", Deps: []string{"b"}}, {ID: "b", Deps: []string{"a"}}, {ID: "c"}}},
		{Name: "dangling", Tasks: []*Task{{ID: "a"}, {ID: "b", Deps: []string{"a", "ghost"}}}},
		{Name: "double-edge", Tasks: []*Task{{ID: "a"}, {ID: "b", Deps: []string{"a", "a"}}}},
	} {
		checkAgainstNaive(t, d)
	}
	// Duplicate IDs: Validate names the duplicate before any graph work.
	dup := &DAG{Name: "dup", Tasks: []*Task{{ID: "a"}, {ID: "a", Deps: []string{"a"}}}}
	if got, want := errText(dup.Validate()), errText(naiveValidate(dup)); got != want {
		t.Fatalf("duplicate IDs: Validate = %s, naive %s", got, want)
	}
}

// TestCompiledFormIsContentChecked edits a validated DAG in every way that
// changes an answer — on the same value and on a by-value copy that shares
// the cached form — and requires the answers a freshly built DAG gives.
func TestCompiledFormIsContentChecked(t *testing.T) {
	base := func() *DAG {
		return &DAG{Name: "app", Tasks: []*Task{
			{ID: "a", Class: hardware.Vision, GFLOP: 1, OutputBytes: 10},
			{ID: "b", Class: hardware.Vision, GFLOP: 2, Deps: []string{"a"}},
			{ID: "c", Class: hardware.General, GFLOP: 3, Deps: []string{"a"}},
		}}
	}
	edits := []struct {
		name string
		edit func(d *DAG)
	}{
		{"add a cycle", func(d *DAG) { d.Tasks[0].Deps = []string{"c"} }},
		{"dangling dep", func(d *DAG) { d.Tasks[2].Deps = append(d.Tasks[2].Deps, "ghost") }},
		{"rewrite a dep in place", func(d *DAG) { d.Tasks[2].Deps[0] = "b" }},
		{"change GFLOP", func(d *DAG) { d.Tasks[1].GFLOP = 50 }},
		{"negative work", func(d *DAG) { d.Tasks[1].GFLOP = -1 }},
		{"swap a task pointer", func(d *DAG) { d.Tasks[2] = &Task{ID: "c", GFLOP: 9, Deps: []string{"b"}} }},
		{"swap two tasks", func(d *DAG) { d.Tasks[1], d.Tasks[2] = d.Tasks[2], d.Tasks[1] }},
		{"append a task", func(d *DAG) { d.Tasks = append(d.Tasks, &Task{ID: "d", GFLOP: 4, Deps: []string{"b", "c"}}) }},
		{"drop a task", func(d *DAG) { d.Tasks = d.Tasks[:2] }},
		{"duplicate ID", func(d *DAG) { d.Tasks[2].ID = "b" }},
		{"rename the DAG", func(d *DAG) { d.Name = "" }},
		{"pin a task", func(d *DAG) { d.Tasks[0].Pinned = "gpu" }},
	}
	for _, e := range edits {
		for _, byCopy := range []bool{false, true} {
			d := base()
			checkAgainstNaive(t, d) // caches the compiled form
			target := d
			if byCopy {
				cp := *d // shares the task pointers and the cached form
				target = &cp
			}
			e.edit(target)
			fresh := base()
			e.edit(fresh)
			if got, want := errText(target.Validate()), errText(fresh.Validate()); got != want {
				t.Errorf("%s (copy=%v): Validate = %s, a fresh DAG says %s", e.name, byCopy, got, want)
			}
			got, gotErr := target.TopoOrder()
			want, wantErr := fresh.TopoOrder()
			if errText(gotErr) != errText(wantErr) || len(got) != len(want) {
				t.Fatalf("%s (copy=%v): TopoOrder = %d tasks, %s; a fresh DAG says %d, %s",
					e.name, byCopy, len(got), errText(gotErr), len(want), errText(wantErr))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Errorf("%s (copy=%v): TopoOrder[%d] = %s, a fresh DAG says %s", e.name, byCopy, i, got[i].ID, want[i].ID)
				}
				own := false
				for _, task := range target.Tasks {
					own = own || task == got[i]
				}
				if !own {
					t.Errorf("%s (copy=%v): TopoOrder[%d] is a task the DAG no longer holds", e.name, byCopy, i)
				}
			}
			gc, _ := target.CriticalPathGFLOP()
			wc, _ := fresh.CriticalPathGFLOP()
			if gc != wc {
				t.Errorf("%s (copy=%v): CriticalPathGFLOP = %v, a fresh DAG says %v", e.name, byCopy, gc, wc)
			}
			if e.name == "duplicate ID" {
				// The naive TopoOrder keyed its maps by ID and so miscounted
				// a DAG Validate rejects; only the verdict is compared.
				continue
			}
			checkAgainstNaive(t, target)
			if byCopy {
				// The original still answers for its own content, whose
				// tasks the copy shares and may have edited.
				checkAgainstNaive(t, d)
			}
		}
	}
}

func TestCompiledPrefix(t *testing.T) {
	d := SensorFusion()
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	c := d.Compiled()
	for k := 1; k <= len(order); k++ {
		p := c.Prefix(k)
		if p != c.Prefix(k) {
			t.Fatalf("Prefix(%d) built twice", k)
		}
		if p.Name != d.Name+"-prefix" || len(p.Tasks) != k {
			t.Fatalf("Prefix(%d) = %s with %d tasks", k, p.Name, len(p.Tasks))
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Prefix(%d): %v", k, err)
		}
		in := make(map[string]bool, k)
		for _, task := range order[:k] {
			in[task.ID] = true
		}
		for q, task := range p.Tasks {
			src := order[q]
			if task == src {
				t.Fatalf("Prefix(%d) shares task %s with the DAG", k, src.ID)
			}
			var deps []string
			for _, dep := range src.Deps {
				if in[dep] {
					deps = append(deps, dep)
				}
			}
			if task.ID != src.ID || task.GFLOP != src.GFLOP || task.Class != src.Class ||
				task.OutputBytes != src.OutputBytes || fmt.Sprint(task.Deps) != fmt.Sprint(deps) {
				t.Fatalf("Prefix(%d) task %d = %+v, want %s with deps %v", k, q, *task, src.ID, deps)
			}
		}
	}
	// Editing the DAG invalidates its prefixes with everything else.
	d.Tasks[0].GFLOP *= 2
	if p := d.Compiled().Prefix(1); p.Tasks[0].GFLOP != order[0].GFLOP {
		t.Fatalf("prefix after an edit has GFLOP %v, DAG has %v", p.Tasks[0].GFLOP, order[0].GFLOP)
	}
}

func TestCompiledQueriesDoNotAllocate(t *testing.T) {
	d := SensorFusion()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.TopoOrder(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("TopoOrder on a validated DAG: %v allocs, want at most the returned slice", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CriticalPathGFLOP(); err != nil {
			t.Fatal(err)
		}
		c := d.Compiled()
		c.Prefix(2)
		c.Order()
	}); n != 0 {
		t.Errorf("Validate+CriticalPathGFLOP+Compiled+Prefix on a validated DAG: %v allocs, want 0", n)
	}
}

// TestCompiledSharedAcrossGoroutines compiles one never-validated DAG from
// many goroutines at once; run under -race.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	d := SensorFusion()
	want, err := naiveTopoOrder(d)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := d.TopoOrder()
				if err != nil || len(got) != len(want) {
					t.Errorf("TopoOrder = %d tasks, %v", len(got), err)
					return
				}
				p := d.Compiled().Prefix(1 + i%len(want))
				if err := p.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
