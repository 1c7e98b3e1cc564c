package offload

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/xedge"
)

// differentialDAGs is the library plus 500 seeded random DAGs.
func differentialDAGs(t *testing.T) []*tasks.DAG {
	t.Helper()
	var dags []*tasks.DAG
	for _, d := range tasks.Library() {
		dags = append(dags, d)
	}
	sort.Slice(dags, func(i, j int) bool { return dags[i].Name < dags[j].Name })
	rng := sim.NewStream(20260930, 17)
	for i := 0; i < 500; i++ {
		cfg := tasks.RandomDAGConfig{MaxTasks: 14, EdgeProb: 0.05 + 0.9*rng.Float64()}
		d, err := tasks.RandomDAG(fmt.Sprintf("rand-%d", i), cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		dags = append(dags, d)
	}
	return dags
}

// TestEstimateSiteMatchesNaiveReference estimates every DAG at every split
// (and just outside the range) toward both sites, against the reference in
// naive_test.go, on twin worlds whose site and device queues are loaded by
// executing one estimate per DAG on each side — the real execute on one,
// the naive one on the other — which must complete at the same time.
func TestEstimateSiteMatchesNaiveReference(t *testing.T) {
	eng, rsu, cl := testWorld(t, 15)
	ref, refRSU, refCl := testWorld(t, 15)
	eng.SetBandwidthBudget(400e6)
	ref.SetBandwidthBudget(400e6)
	feasible, executed := 0, 0
	for i, d := range differentialDAGs(t) {
		now := time.Duration(i) * 20 * time.Millisecond
		var pick Estimate
		for split := -1; split <= len(d.Tasks); split++ {
			for s, site := range []struct{ real, naive *xedge.Site }{{rsu, refRSU}, {cl, refCl}} {
				got := eng.EstimateSite(d, site.real, split, now)
				want := ref.naiveEstimateSite(d, site.naive, split, now)
				if got != want {
					t.Fatalf("%s split %d site %d:\n got %+v\nwant %+v", d.Name, split, s, got, want)
				}
				if got.Feasible {
					feasible++
					if (split+s+i)%3 == 0 {
						pick = got
					}
				}
			}
		}
		if !pick.Feasible {
			continue
		}
		done, err := eng.Execute(d, pick, now)
		refDone, refErr := ref.naiveExecute(d, pick, now)
		if done != refDone || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: execute %+v finished at %v (%v), reference %v (%v)", d.Name, pick, done, err, refDone, refErr)
		}
		if eng.BytesSpent() != ref.BytesSpent() {
			t.Fatalf("%s: spent %v bytes, reference %v", d.Name, eng.BytesSpent(), ref.BytesSpent())
		}
		if err == nil {
			executed++
		}
	}
	if feasible < 2000 || executed < 100 {
		t.Fatalf("only %d feasible estimates and %d executions compared", feasible, executed)
	}
}

// TestEstimateSeesEditedDAG edits a DAG after it was estimated — on the
// same value and on a by-value copy — and requires the estimate a freshly
// built DAG gets, or its error.
func TestEstimateSeesEditedDAG(t *testing.T) {
	eng, rsu, _ := testWorld(t, 15)
	edits := []struct {
		name string
		edit func(d *tasks.DAG)
	}{
		{"heavier task", func(d *tasks.DAG) { d.Tasks[2].GFLOP *= 40 }},
		{"bigger cut", func(d *tasks.DAG) { d.Tasks[0].OutputBytes *= 7 }},
		{"swapped task", func(d *tasks.DAG) {
			cp := *d.Tasks[1]
			cp.Class, cp.GFLOP = hardware.General, 3
			d.Tasks[1] = &cp
		}},
		{"cycle", func(d *tasks.DAG) { d.Tasks[0].Deps = []string{d.Tasks[2].ID} }},
		{"dangling dep", func(d *tasks.DAG) { d.Tasks[1].Deps = append(d.Tasks[1].Deps, "ghost") }},
	}
	for _, e := range edits {
		for _, byCopy := range []bool{false, true} {
			d := tasks.ALPR()
			before := [3]Estimate{}
			for split := range before {
				before[split] = eng.EstimateSite(d, rsu, split, 0)
				if !before[split].Feasible {
					t.Fatalf("split %d infeasible before the edit: %s", split, before[split].Reason)
				}
			}
			target := d
			if byCopy {
				cp := *d
				target = &cp
			}
			e.edit(target)
			fresh := tasks.ALPR()
			e.edit(fresh)
			changed := false
			for split := range before {
				got := eng.EstimateSite(target, rsu, split, 0)
				want := eng.EstimateSite(fresh, rsu, split, 0)
				if got != want {
					t.Errorf("%s (copy=%v) split %d:\n got %+v\nwant %+v", e.name, byCopy, split, got, want)
				}
				changed = changed || got != before[split]
			}
			if !changed {
				t.Errorf("%s (copy=%v): no estimate changed", e.name, byCopy)
			}
			_, all, err := eng.Decide(target, 0)
			_, freshAll, freshErr := eng.Decide(fresh, 0)
			if fmt.Sprint(err) != fmt.Sprint(freshErr) || fmt.Sprint(all) != fmt.Sprint(freshAll) {
				t.Errorf("%s (copy=%v): Decide = %v, %v; a fresh DAG gets %v, %v", e.name, byCopy, all, err, freshAll, freshErr)
			}
		}
	}
}

func TestEstimateBestSite(t *testing.T) {
	eng, rsu, cl := testWorld(t, 15)
	dag := tasks.ALPR()
	for split := 0; split < len(dag.Tasks); split++ {
		want := eng.EstimateSite(dag, rsu, split, 0)
		if c := eng.EstimateSite(dag, cl, split, 0); c.Feasible && c.Total < want.Total {
			want = c
		}
		if got := eng.EstimateBestSite(dag, split, 0); got != want {
			t.Fatalf("split %d: best site %+v, want %+v", split, got, want)
		}
	}
	// Nothing feasible: the first site's reason is the one reported.
	if got := eng.EstimateBestSite(dag, len(dag.Tasks), 0); got.Feasible || got.Dest != rsu.Name() {
		t.Fatalf("out-of-range split: %+v", got)
	}
	bare, err := NewEngine(eng.dsf, eng.mob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := bare.EstimateBestSite(dag, 0, 0); got.Feasible || got.Reason != "no sites" {
		t.Fatalf("no sites: %+v", got)
	}
}
