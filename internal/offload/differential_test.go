package offload

import (
	"fmt"
	"reflect"
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
	"repro/internal/telemetry"
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
		if eng.spentBytes != ref.spentBytes {
			t.Fatalf("%s: spent %v bytes, reference %v", d.Name, eng.spentBytes, ref.spentBytes)
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
// a cycle and one a task no device can run, so every prefix plan fails.
// With a tracer attached, a call renders exactly the EstimateSite spans of
// the sites the untraced search estimates (estimatedSites), in site order:
// the skipped sites get none.
func TestEstimateBestSiteMatchesNaiveReference(t *testing.T) {
	dsf := newDSF(t)
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
			adjust: func(dst []network.LinkSpec, dest string, p network.Path, now time.Duration) network.Path {
				loss := 0.0
				switch sec := int(now / time.Second); {
				case sec%5 == 0:
					loss = 1 // not a valid link: every transfer estimate errors
				case dest == "wide" && sec%2 == 1:
					loss = 0.9
				default:
					return p
				}
				adj := network.Path{Name: p.Name, Links: append(dst[:0], p.Links...)}
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
	feasible, skipped := 0, 0
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
				estimated := estimatedSites(eng, d, split, now)
				for _, s := range estimated {
					eng.EstimateSite(d, s, split, now)
				}
				skipped += len(w.sites) - len(estimated)
			}
			eng.Instrument(obs.Scope{})
			if got, want := best.RenderTree(), each.RenderTree(); got != want {
				t.Fatalf("%s: %s traced:\n got %s\nwant %s", w.name, d.Name, got, want)
			}
		}
	}
	if skipped == 0 {
		t.Error("no traced call skipped a site")
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

// estimatedSites restates the best-site search's skip rule: the first site
// is always estimated, a later one only when the split is valid and the
// site covers the vehicle at now.
func estimatedSites(eng *Engine, d *tasks.DAG, split int, now time.Duration) []*xedge.Site {
	valid := d.Validate() == nil && split >= 0 && split < len(d.Tasks)
	pos := eng.mob.PositionAt(now)
	var out []*xedge.Site
	for si, s := range eng.sites {
		if si == 0 || valid && s.Reachable(pos) {
			out = append(out, s)
		}
	}
	return out
}

// adjusterCall is one call of a path adjuster: which destination, when.
type adjusterCall struct {
	dest string
	now  time.Duration
}

// loggedAdjuster returns a path adjuster that appends each call to *log
// (when log is not nil) and, when degrade is set, degrades links by the
// virtual second: every link is invalid in the seconds divisible by 5,
// and the site named "wide" loses 90 % of its packets in odd ones.
func loggedAdjuster(log *[]adjusterCall, degrade bool) PathAdjuster {
	return func(dst []network.LinkSpec, dest string, p network.Path, now time.Duration) network.Path {
		if *log != nil {
			*log = append(*log, adjusterCall{dest, now})
		}
		if !degrade {
			return p
		}
		loss := 0.0
		switch sec := int(now / time.Second); {
		case sec%5 == 0:
			loss = 1
		case dest == "wide" && sec%2 == 1:
			loss = 0.9
		default:
			return p
		}
		adj := network.Path{Name: p.Name, Links: append(dst[:0], p.Links...)}
		for i := range adj.Links {
			adj.Links[i].BaseLoss = loss
		}
		return adj
	}
}

// remoteWorld is one of the next-site search's differential worlds.
type remoteWorld struct {
	name    string
	sites   []*xedge.Site
	budget  float64
	degrade bool
}

// remoteWorlds builds the next-site search's differential worlds afresh —
// each call makes new sites, so two calls give twin worlds — and the
// mobility they share. The vehicle drives x = 0 .. ~1 700 m: the 600 m
// disks at 500 and 1 800 m come and go, the 50 km ones always cover it.
// The worlds reach no site, one and several as the vehicle drives; hold
// tied twins; take a site down; fit some offloads in a budget and none in
// an exhausted one; and degrade links by the second.
func remoteWorlds(t *testing.T) (geo.Mobility, []remoteWorld) {
	t.Helper()
	road, err := geo.NewRoad(10000)
	if err != nil {
		t.Fatal(err)
	}
	rsu := func(id string, x, radius float64) *xedge.Site {
		s, err := xedge.NewRSU(geo.Station{ID: id, Kind: geo.RSU, Pos: geo.Point{X: x, Y: 20}, Radius: radius})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cloud := func() *xedge.Site {
		s, err := xedge.NewCloud()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	down := func(s *xedge.Site) *xedge.Site { s.SetAvailable(false); return s }
	return geo.Mobility{Road: road, SpeedMS: 15}, []remoteWorld{
		{name: "no sites"},
		{name: "one", sites: []*xedge.Site{rsu("a", 500, 600)}},
		{name: "several", sites: []*xedge.Site{rsu("a", 500, 600), rsu("b", 1800, 600), rsu("wide", 0, 50000), cloud()}},
		{name: "ties", sites: []*xedge.Site{rsu("a", 500, 600), rsu("wide", 0, 50000), rsu("a-twin", 500, 600), rsu("wide-twin", 0, 50000)}},
		{name: "down", sites: []*xedge.Site{rsu("a", 500, 600), down(rsu("wide", 0, 50000)), cloud(), rsu("b", 1800, 600)}},
		{name: "budget", sites: []*xedge.Site{rsu("wide", 0, 50000), cloud(), rsu("a", 500, 600)}, budget: 3e5},
		{name: "exhausted budget", sites: []*xedge.Site{rsu("wide", 0, 50000), cloud()}, budget: 1},
		{name: "degraded", sites: []*xedge.Site{cloud(), rsu("a", 500, 600), rsu("wide", 0, 50000), rsu("b", 1800, 600)}, degrade: true},
	}
}

// newDSF returns a GreedyEFT scheduler over a fresh default VCU.
func newDSF(t *testing.T) *vcu.DSF {
	t.Helper()
	m, err := vcu.DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
	if err != nil {
		t.Fatal(err)
	}
	return dsf
}

// remoteDAGs is the first 60 differential DAGs plus ALPR with a cycle.
func remoteDAGs(t *testing.T) []*tasks.DAG {
	cyclic := tasks.ALPR()
	cyclic.Name = "alpr-cycle"
	cyclic.Tasks[0].Deps = []string{cyclic.Tasks[2].ID}
	return append(differentialDAGs(t)[:60], cyclic)
}

// TestNextRemoteMatchesReference holds the resilient ladder's next-site
// search to the reference it replaced (naiveNextRemote: every destination
// estimated, a stable sort, the first feasible untried remote site), field
// for field, with every subset of sites already tried, on remoteWorlds. A
// path adjuster logs its calls: the search must make the reference's, in
// its order, because a fault injector counts every path it degrades. Every
// tenth DAG is also searched with a tracer attached, which must render
// exactly the EstimateSite spans of the sites the untraced search estimates
// (estimatedSites at split 0; none for a DAG without an order): no
// on-board estimate, and nothing for a site the search skips.
func TestNextRemoteMatchesReference(t *testing.T) {
	dsf := newDSF(t)
	mob, worlds := remoteWorlds(t)
	dags := remoteDAGs(t)

	var log []adjusterCall
	// untried counts searches by how many sites were feasible and untried
	// (2 meaning two or more); tied counts those where two of them tied.
	untried := map[int]int{}
	tied, calls, skipped := 0, 0, 0
	for _, w := range worlds {
		eng, err := NewEngine(dsf, mob, w.sites)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetBandwidthBudget(w.budget)
		eng.SetPathAdjuster(loggedAdjuster(&log, w.degrade))
		for i, d := range dags {
			now := time.Duration(i) * 1900 * time.Millisecond
			totals := make([]time.Duration, len(w.sites))
			feasible := make([]bool, len(w.sites))
			for si, s := range w.sites {
				est := eng.naiveEstimateSite(d, s, 0, now)
				totals[si], feasible[si] = est.Total, est.Feasible
			}
			for mask := 0; mask < 1<<len(w.sites); mask++ {
				tried := make([]bool, len(w.sites))
				byName := map[string]bool{}
				n, tie := 0, false
				for si, s := range w.sites {
					tried[si] = mask&(1<<si) != 0
					byName[s.Name()] = tried[si]
					if feasible[si] && !tried[si] {
						for sj := 0; sj < si; sj++ {
							tie = tie || feasible[sj] && !tried[sj] && totals[sj] == totals[si]
						}
						n++
					}
				}
				for _, traced := range []bool{false, true} {
					if traced && i%10 != 0 {
						continue
					}
					var sc obs.Scope
					if traced {
						sc.Tracer = trace.New()
					}
					eng.Instrument(sc)
					log = []adjusterCall{}
					got, gotOK := eng.nextRemote(d, now, tried)
					gotLog, gotSpans := log, sc.Tracer.RenderTree()
					log = []adjusterCall{}
					want, wantOK := eng.naiveNextRemote(d, now, byName)
					wantLog := log
					log = nil
					what := fmt.Sprintf("%s: %s at %v, tried %b, traced %v", w.name, d.Name, now, mask, traced)
					if got != want || gotOK != wantOK {
						t.Fatalf("%s:\n got %+v, %v\nwant %+v, %v", what, got, gotOK, want, wantOK)
					}
					if !reflect.DeepEqual(gotLog, wantLog) {
						t.Fatalf("%s: adjuster calls\n got %v\nwant %v", what, gotLog, wantLog)
					}
					calls += len(gotLog)
					if traced {
						each := trace.New()
						eng.Instrument(obs.Scope{Tracer: each})
						if d.Validate() == nil {
							estimated := estimatedSites(eng, d, 0, now)
							for _, s := range estimated {
								eng.EstimateSite(d, s, 0, now)
							}
							skipped += len(w.sites) - len(estimated)
						}
						if want := each.RenderTree(); gotSpans != want {
							t.Fatalf("%s: spans\n got %s\nwant %s", what, gotSpans, want)
						}
					}
				}
				untried[min(n, 2)]++
				if tie {
					tied++
				}
			}
		}
	}
	t.Logf("searches by feasible untried sites %v, %d with a tie, %d adjuster calls, %d traced skips", untried, tied, calls, skipped)
	for _, k := range []int{0, 1, 2} {
		if untried[k] == 0 {
			t.Errorf("no search with %d feasible untried sites (of %v)", k, untried)
		}
	}
	if tied == 0 || calls == 0 || skipped == 0 {
		t.Errorf("%d searches with a tie, %d adjuster calls and %d traced skips compared", tied, calls, skipped)
	}
}

// TestTracingDoesNotSteer runs the same calls on twin worlds (remoteWorlds,
// built twice) whose engine and DSF report into one registry each, and of
// which only one has a tracer: EstimateBestSite at every split, nextRemote
// with every tried mask, then ExecuteResilient of the best full offload (or
// of on-board execution when no site is feasible) under the default
// policy, with each site failing its submissions one virtual second in
// three so that the ladder retries and falls back. The estimates, the
// outcomes, the path adjuster calls (in order) and the rendered registries
// must be equal: a tracer observes the search, it does not change it.
func TestTracingDoesNotSteer(t *testing.T) {
	type twin struct {
		eng *Engine
		reg *telemetry.Registry
		log []adjusterCall
	}
	mob, plainWorlds := remoteWorlds(t)
	_, tracedWorlds := remoteWorlds(t)
	dags := remoteDAGs(t)
	pol := DefaultPolicy()
	newTwin := func(w remoteWorld, tr *trace.Tracer) *twin {
		tw := &twin{reg: telemetry.NewRegistry(), log: []adjusterCall{}}
		sc := obs.Scope{Metrics: tw.reg, Tracer: tr}
		dsf := newDSF(t)
		dsf.Instrument(sc)
		eng, err := NewEngine(dsf, mob, w.sites)
		if err != nil {
			t.Fatal(err)
		}
		eng.Instrument(sc)
		eng.SetBandwidthBudget(w.budget)
		eng.SetPathAdjuster(loggedAdjuster(&tw.log, w.degrade))
		eng.SetResilience(&pol)
		for si, s := range w.sites {
			s.SetFaultInjector(func(now time.Duration) error {
				if (int(now/time.Second)+si)%3 == 0 {
					return fmt.Errorf("injected fault at %v", now)
				}
				return nil
			})
		}
		tw.eng = eng
		return tw
	}
	fallbacks, spans := 0, 0
	for wi, w := range plainWorlds {
		tr := trace.New()
		plain, traced := newTwin(w, nil), newTwin(tracedWorlds[wi], tr)
		tried := make([]bool, len(w.sites))
		for i, d := range dags {
			now := time.Duration(i) * 1900 * time.Millisecond
			what := fmt.Sprintf("%s: %s at %v", w.name, d.Name, now)
			for split := -1; split <= len(d.Tasks); split++ {
				got, want := traced.eng.EstimateBestSite(d, split, now), plain.eng.EstimateBestSite(d, split, now)
				if got != want {
					t.Fatalf("%s, split %d: traced\n %+v\nuntraced\n %+v", what, split, got, want)
				}
			}
			for mask := 0; mask < 1<<len(w.sites); mask++ {
				for si := range tried {
					tried[si] = mask&(1<<si) != 0
				}
				got, gotOK := traced.eng.nextRemote(d, now, tried)
				want, wantOK := plain.eng.nextRemote(d, now, tried)
				if got != want || gotOK != wantOK {
					t.Fatalf("%s, tried %b: traced\n %+v, %v\nuntraced\n %+v, %v", what, mask, got, gotOK, want, wantOK)
				}
			}
			chosen := func(e *Engine) Estimate {
				if est := e.EstimateBestSite(d, 0, now); est.Feasible {
					return est
				}
				return e.EstimateOnboard(d, now)
			}
			gotEst, wantEst := chosen(traced.eng), chosen(plain.eng)
			if gotEst != wantEst {
				t.Fatalf("%s: chosen traced\n %+v\nuntraced\n %+v", what, gotEst, wantEst)
			}
			deadline := now + 2*time.Second
			gotDone, gotOut, gotErr := traced.eng.ExecuteResilient(d, gotEst, now, deadline)
			wantDone, wantOut, wantErr := plain.eng.ExecuteResilient(d, wantEst, now, deadline)
			if gotDone != wantDone || gotOut != wantOut || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: resilient traced\n %v, %+v, %v\nuntraced\n %v, %+v, %v",
					what, gotDone, gotOut, gotErr, wantDone, wantOut, wantErr)
			}
			fallbacks += wantOut.Fallbacks
			if !reflect.DeepEqual(traced.log, plain.log) {
				t.Fatalf("%s: adjuster calls traced\n %v\nuntraced\n %v", what, traced.log, plain.log)
			}
			traced.log, plain.log = traced.log[:0], plain.log[:0]
			if got, want := traced.reg.Render(), plain.reg.Render(); got != want {
				t.Fatalf("%s: registries differ\n%s", what, lineDiff(got, want))
			}
		}
		spans += tr.SpanCount()
	}
	t.Logf("%d fallbacks, %d spans", fallbacks, spans)
	if fallbacks == 0 || spans == 0 {
		t.Errorf("%d fallbacks and %d spans across the traced worlds", fallbacks, spans)
	}
}

// lineDiff lists the lines of got and want that differ, position by
// position, as "-want" / "+got" pairs.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			fmt.Fprintf(&b, "-%s\n+%s\n", wl, gl)
		}
	}
	return b.String()
}

// FuzzNextRemoteMatchesReference holds the next-site search to
// naiveNextRemote, adjuster calls included, on fuzzed worlds: four RSUs
// whose positions (40 m steps) and radii (10 m steps, 0 covering the whole
// road) are the bytes of coverage, then the cloud; the vehicle at posM
// metres; per-site outage (down) and degrade bits, bit 7 of degrade making
// every link invalid; the tried mask; a budget in bytes (0: none); the
// library DAG dag picks; and a tracer or none. A traced search must also
// match the same search on an untraced twin world, answer and adjuster
// calls alike, and render exactly the EstimateSite spans of the sites that
// search estimates (estimatedSites at split 0).
func FuzzNextRemoteMatchesReference(f *testing.F) {
	f.Add(uint64(0x3c32_2814_1e0a_3c05), uint16(500), uint8(0), uint8(0), uint8(0), uint32(0), uint8(0), false)
	f.Add(uint64(0x3c32_3c32_1e0a_1e0a), uint16(420), uint8(0), uint8(0b1), uint8(0b100), uint32(0), uint8(1), false)
	f.Add(uint64(0x0000_3c32_1e0a_3c05), uint16(9000), uint8(0b10010), uint8(0b10), uint8(0b11), uint32(300000), uint8(2), true)
	f.Add(uint64(0xffff_ffff_ffff_ffff), uint16(0), uint8(0), uint8(0x80), uint8(0), uint32(1), uint8(3), false)
	f.Add(uint64(0), uint16(65535), uint8(0b1111), uint8(0b11111), uint8(0b10000), uint32(0), uint8(4), true)
	var dags []*tasks.DAG
	for _, d := range tasks.Library() {
		dags = append(dags, d)
	}
	sort.Slice(dags, func(i, j int) bool { return dags[i].Name < dags[j].Name })
	road, err := geo.NewRoad(10000)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, coverage uint64, posM uint16, down, degrade, tried uint8, budget uint32, dag uint8, traced bool) {
		// The vehicle drives at 20 m/s, so it is at posM metres at posM/20 s.
		mob := geo.Mobility{Road: road, SpeedMS: 20}
		now := time.Duration(posM) * time.Second / 20
		// build makes the fuzzed world afresh, so two calls give twins; its
		// path adjuster appends each call to *log.
		build := func(log *[]adjusterCall) *Engine {
			sites := make([]*xedge.Site, 0, 5)
			for i := 0; i < 4; i++ {
				c := coverage >> (16 * i)
				s, err := xedge.NewRSU(geo.Station{ID: fmt.Sprintf("r%d", i), Kind: geo.RSU,
					Pos: geo.Point{X: float64(c&0xff) * 40, Y: 20}, Radius: float64(c>>8&0xff) * 10})
				if err != nil {
					t.Fatal(err)
				}
				sites = append(sites, s)
			}
			cl, err := xedge.NewCloud()
			if err != nil {
				t.Fatal(err)
			}
			sites = append(sites, cl)
			for i, s := range sites {
				s.SetAvailable(down&(1<<i) == 0)
			}
			eng, err := NewEngine(newDSF(t), mob, sites)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetBandwidthBudget(float64(budget))
			eng.SetPathAdjuster(func(dst []network.LinkSpec, dest string, p network.Path, at time.Duration) network.Path {
				*log = append(*log, adjusterCall{dest, at})
				loss := -1.0
				if degrade&0x80 != 0 {
					loss = 1
				}
				for i, s := range sites {
					if s.Name() == dest && degrade&(1<<i) != 0 && loss < 0 {
						loss = 0.6
					}
				}
				if loss < 0 {
					return p
				}
				adj := network.Path{Name: p.Name, Links: append(dst[:0], p.Links...)}
				for i := range adj.Links {
					adj.Links[i].BaseLoss = loss
				}
				return adj
			})
			return eng
		}
		var log []adjusterCall
		eng := build(&log)
		triedSlice := make([]bool, len(eng.sites))
		byName := map[string]bool{}
		for i, s := range eng.sites {
			triedSlice[i] = tried&(1<<i) != 0
			byName[s.Name()] = triedSlice[i]
		}
		tr := trace.New()
		if traced {
			eng.Instrument(obs.Scope{Tracer: tr})
		}
		d := dags[int(dag)%len(dags)]
		got, gotOK := eng.nextRemote(d, now, triedSlice)
		gotLog := log
		log = nil
		if traced {
			var twinLog []adjusterCall
			twin := build(&twinLog)
			plain, plainOK := twin.nextRemote(d, now, triedSlice)
			if got != plain || gotOK != plainOK || !reflect.DeepEqual(gotLog, twinLog) {
				t.Fatalf("traced %+v, %v, adjuster calls %v\nuntraced %+v, %v, adjuster calls %v",
					got, gotOK, gotLog, plain, plainOK, twinLog)
			}
			each := trace.New()
			twin.Instrument(obs.Scope{Tracer: each})
			for _, s := range estimatedSites(twin, d, 0, now) {
				twin.EstimateSite(d, s, 0, now)
			}
			if got, want := tr.RenderTree(), each.RenderTree(); got != want {
				t.Fatalf("spans\n got %s\nwant %s", got, want)
			}
		}
		want, wantOK := eng.naiveNextRemote(d, now, byName)
		if got != want || gotOK != wantOK {
			t.Fatalf("got %+v, %v\nwant %+v, %v", got, gotOK, want, wantOK)
		}
		if !reflect.DeepEqual(gotLog, log) {
			t.Fatalf("adjuster calls\n got %v\nwant %v", gotLog, log)
		}
	})
}
