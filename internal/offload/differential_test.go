package offload

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/trace"
	"repro/internal/vcu"
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

// TestEstimateBestSiteMatchesNaiveReference holds EstimateBestSite — which
// checks the DAG and split, places the vehicle and plans the on-board
// prefix once per call and skips sites that cannot be the answer — to the
// first minimum over naiveEstimateSite at every site, field for field. The
// worlds reach no site, one and several as the vehicle drives; put an
// unreachable site first; take a site down; exhaust a bandwidth budget; and
// degrade links through a path adjuster, one of them past validity. Every
// DAG is estimated at every split and just outside the range; one DAG has
// a cycle and one a task no device can run, so every prefix plan fails. With a tracer attached, a call renders the same spans as
// EstimateSite at each site in turn.
func TestEstimateBestSiteMatchesNaiveReference(t *testing.T) {
	m, err := vcu.DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
	if err != nil {
		t.Fatal(err)
	}
	road, err := geo.NewRoad(10000)
	if err != nil {
		t.Fatal(err)
	}
	mob := geo.Mobility{Road: road, SpeedMS: 15}
	rsu := func(id string, x, radius float64) *xedge.Site {
		s, err := xedge.NewRSU(geo.Station{ID: id, Kind: geo.RSU, Pos: geo.Point{X: x, Y: 20}, Radius: radius})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cloud := func(up bool) *xedge.Site {
		s, err := xedge.NewCloud()
		if err != nil {
			t.Fatal(err)
		}
		s.SetAvailable(up)
		return s
	}
	down := func(s *xedge.Site) *xedge.Site { s.SetAvailable(false); return s }
	// The vehicle drives x = 0 .. ~2 300 m: the 600 m disks at 500 and
	// 1 800 m come and go, the 50 km one always covers it, the one at
	// 9 km never does.
	worlds := []struct {
		name   string
		sites  []*xedge.Site
		budget float64
		adjust PathAdjuster
	}{
		{name: "no sites"},
		{name: "several", sites: []*xedge.Site{rsu("a", 500, 600), rsu("b", 1800, 600), rsu("wide", 0, 50000), cloud(true)}},
		{name: "unreachable first", sites: []*xedge.Site{rsu("far", 9000, 100), cloud(true), rsu("a", 500, 600)}},
		{name: "at most one", sites: []*xedge.Site{rsu("far", 9000, 100), rsu("a", 500, 600), cloud(false)}},
		{name: "unavailable", sites: []*xedge.Site{rsu("a", 500, 600), down(rsu("wide", 0, 50000)), cloud(true), rsu("b", 1800, 600)}},
		{name: "budget", sites: []*xedge.Site{rsu("wide", 0, 50000), cloud(true), rsu("a", 500, 600)}, budget: 3e5},
		{name: "adjuster", sites: []*xedge.Site{cloud(true), rsu("a", 500, 600), rsu("wide", 0, 50000)},
			adjust: func(dest string, p network.Path, now time.Duration) network.Path {
				loss := 0.0
				switch sec := int(now / time.Second); {
				case sec%5 == 0:
					loss = 1 // not a valid link: every transfer estimate errors
				case dest == "wide" && sec%2 == 1:
					loss = 0.9
				default:
					return p
				}
				adj := network.Path{Name: p.Name, Links: append([]network.LinkSpec(nil), p.Links...)}
				for i := range adj.Links {
					adj.Links[i].BaseLoss = loss
				}
				return adj
			}},
	}
	dags := differentialDAGs(t)[:80]
	cyclic := tasks.ALPR()
	cyclic.Name = "alpr-cycle"
	cyclic.Tasks[0].Deps = []string{cyclic.Tasks[2].ID}
	pinned := tasks.ALPR()
	pinned.Name = "alpr-pinned"
	pinned.Tasks[0].Pinned = "no-such-device" // every prefix plan fails
	dags = append(dags, cyclic, pinned)

	reachable := map[string]int{}
	reasons := map[string]int{}
	feasible := 0
	for _, w := range worlds {
		eng, err := NewEngine(dsf, mob, w.sites)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetBandwidthBudget(w.budget)
		eng.SetPathAdjuster(w.adjust)
		for i, d := range dags {
			now := time.Duration(i) * 1900 * time.Millisecond
			n := 0
			for _, s := range w.sites {
				if s.Reachable(mob.PositionAt(now)) {
					n++
				}
			}
			reachable[fmt.Sprint(min(n, 2))]++
			for split := -1; split <= len(d.Tasks); split++ {
				got := eng.EstimateBestSite(d, split, now)
				want := eng.naiveEstimateBestSite(d, split, now)
				if got != want {
					t.Fatalf("%s: %s split %d at %v:\n got %+v\nwant %+v", w.name, d.Name, split, now, got, want)
				}
				if got.Feasible {
					feasible++
				} else {
					reasons[strings.Fields(got.Reason)[0]]++
				}
			}
			if i%10 != 0 && i < len(dags)-2 {
				continue
			}
			best, each := trace.New(), trace.New()
			for split := -1; split <= len(d.Tasks); split++ {
				eng.Instrument(obs.Scope{Tracer: best})
				eng.EstimateBestSite(d, split, now)
				eng.Instrument(obs.Scope{Tracer: each})
				for _, s := range w.sites {
					eng.EstimateSite(d, s, split, now)
				}
			}
			eng.Instrument(obs.Scope{})
			if got, want := best.RenderTree(), each.RenderTree(); got != want {
				t.Fatalf("%s: %s traced:\n got %s\nwant %s", w.name, d.Name, got, want)
			}
			if best.SpanCount() < len(w.sites) {
				t.Fatalf("%s: %s traced only %d spans", w.name, d.Name, best.SpanCount())
			}
		}
	}
	for _, k := range []string{"0", "1", "2"} {
		if reachable[k] == 0 {
			t.Errorf("no call with %s reachable sites (of %v)", k, reachable)
		}
	}
	for _, r := range []string{"no", "out", "split", "tasks:", "vcu:", "bandwidth", "path"} {
		if reasons[r] == 0 {
			t.Errorf("no estimate failed with a reason starting %q (of %v)", r, reasons)
		}
	}
	if feasible < 1000 {
		t.Errorf("only %d feasible answers compared", feasible)
	}
}
