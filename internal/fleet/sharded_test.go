package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/edgeos"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tasks"
)

// chaosConfig builds a fleet config that exercises every sharded-round
// path: speed jitter (RNG draws at construction), fault injection
// (outages, degraded links, exec faults), and the resilience ladder
// (retries, fallbacks, degradation).
func chaosConfig(vehicles, shards int, seed int64) Config {
	pol := offload.DefaultPolicy()
	return Config{
		Vehicles:       vehicles,
		RSUs:           2,
		SpeedJitterMPH: 10,
		RNG:            sim.NewStream(seed, 0),
		Resilience:     &pol,
		Faults: &faults.PlanConfig{
			Horizon:             20 * time.Second,
			MeanTimeToOutage:    2 * time.Second,
			MeanOutage:          800 * time.Millisecond,
			MeanTimeToDegrade:   2 * time.Second,
			MeanDegrade:         time.Second,
			MeanTimeToExecFault: time.Second,
			MeanExecFault:       400 * time.Millisecond,
		},
		Shards: shards,
	}
}

// cellConfig builds a clean-world fleet whose RSU disks are disjoint
// (spacing 2500 m > 2 x 1000 m), so each vehicle reaches at most one RSU
// plus the cloud and commits spread over many sites.
func cellConfig(vehicles, shards int, seed int64) Config {
	return Config{
		Vehicles:       vehicles,
		RSUs:           8,
		RSURadiusM:     1000,
		SpeedJitterMPH: 10,
		RNG:            sim.NewStream(seed, 0),
		Shards:         shards,
	}
}

// diffWorld is one input of the shard-count differential tests; mixed
// gives every third vehicle the resilience policy after construction.
type diffWorld struct {
	name     string
	vehicles int
	cfg      func(vehicles, shards int, seed int64) Config
	mixed    bool
}

// diffWorlds: the faulted resilient world, the disjoint-disk cell
// topology, and a cell world where ladder commits (which may touch any
// site) interleave with plain ones in the one canonical-order commit loop.
var diffWorlds = []diffWorld{
	{name: "chaos", vehicles: 21, cfg: chaosConfig},
	{name: "cells", vehicles: 24, cfg: cellConfig},
	{name: "mixed", vehicles: 30, cfg: cellConfig, mixed: true},
}

// build assembles the world's fleet at the given shard count.
func (world diffWorld) build(t *testing.T, shards int, seed int64) *Fleet {
	t.Helper()
	f, err := New(world.cfg(world.vehicles, shards, seed))
	if err != nil {
		t.Fatal(err)
	}
	if world.mixed {
		pol := offload.DefaultPolicy()
		for i, v := range f.Vehicles() {
			if i%3 == 0 {
				p := pol
				v.Engine.SetResilience(&p)
			}
		}
	}
	return f
}

// shardedArtifacts is everything a sharded run produces that the
// determinism contract covers.
type shardedArtifacts struct {
	rounds []RoundResult
	reg    string
	tree   string
	chrome []byte
	flight string
}

// shardedRun drives rounds epochs of the sharded executor with telemetry,
// traces and the flight recorder on, and returns the per-round results
// plus the merged artifacts.
func shardedRun(t *testing.T, f *Fleet, rounds int) shardedArtifacts {
	t.Helper()
	f.InstrumentSharded(true)
	f.EnableFlightRecorder(4096)
	var a shardedArtifacts
	for r := 0; r < rounds; r++ {
		rr, err := f.ShardedInvokeAllTolerant("kidnapper-search", time.Duration(r)*400*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		a.rounds = append(a.rounds, rr)
	}
	reg, trc := f.MergedTelemetry()
	chrome, err := trc.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	a.reg, a.tree, a.chrome = reg.Render(), trc.RenderTree(), chrome
	a.flight = f.MergedFlightRecorder().RenderTable()
	return a
}

// TestShardedDifferentialAcrossShardCounts is the executor's determinism
// contract: each seeded world run at shards 1, 2, 4, and 7 produces
// identical RoundResults, identical merged telemetry renders,
// byte-identical trace exports and an identical flight-recorder table,
// whose only commit-phase markers are commit.begin and commit.end. 7
// deliberately does not divide the vehicle counts.
func TestShardedDifferentialAcrossShardCounts(t *testing.T) {
	const rounds, seed = 6, 42
	for _, world := range diffWorlds {
		t.Run(world.name, func(t *testing.T) {
			base := shardedRun(t, world.build(t, 1, seed), rounds)
			if !strings.Contains(base.reg, "edgeos.invocations") {
				t.Fatalf("baseline registry missing invocation metrics:\n%s", base.reg)
			}
			var sawOffload bool
			for _, rr := range base.rounds {
				if rr.OffloadShare > 0 {
					sawOffload = true
				}
			}
			if !sawOffload {
				t.Fatal("no round offloaded: the commit phase was never exercised")
			}
			if !strings.Contains(base.flight, "commit.begin") || !strings.Contains(base.flight, "commit.end") {
				t.Fatalf("commit-phase markers missing from the flight log:\n%s", base.flight)
			}
			if strings.Contains(base.flight, "commit.lane.") {
				t.Fatalf("flight log carries per-lane commit markers:\n%s", base.flight)
			}
			for _, shards := range []int{2, 4, 7} {
				got := shardedRun(t, world.build(t, shards, seed), rounds)
				if !reflect.DeepEqual(got.rounds, base.rounds) {
					t.Fatalf("shards=%d RoundResults diverged:\n got %+v\nwant %+v", shards, got.rounds, base.rounds)
				}
				if got.reg != base.reg {
					t.Fatalf("shards=%d merged telemetry render diverged from shards=1", shards)
				}
				if got.tree != base.tree {
					t.Fatalf("shards=%d trace tree diverged from shards=1", shards)
				}
				if !bytes.Equal(got.chrome, base.chrome) {
					t.Fatalf("shards=%d Chrome trace bytes diverged from shards=1", shards)
				}
				if got.flight != base.flight {
					t.Fatalf("shards=%d flight-recorder table diverged from shards=1:\n%s\nvs\n%s", shards, got.flight, base.flight)
				}
			}
		})
	}
}

// TestShardedDifferentialCleanWorld covers the non-tolerant entry point
// in a fault-free world (errors abort, nothing to tolerate).
func TestShardedDifferentialCleanWorld(t *testing.T) {
	run := func(shards int) ([]RoundResult, string) {
		f, err := New(Config{Vehicles: 12, RSUs: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		f.InstrumentSharded(false)
		var out []RoundResult
		for r := 0; r < 5; r++ {
			rr, err := f.ShardedInvokeAll("kidnapper-search", time.Duration(r)*300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rr)
		}
		reg, _ := f.MergedTelemetry()
		return out, reg.Render()
	}
	baseRR, baseReg := run(1)
	for _, shards := range []int{2, 4, 7} {
		rr, reg := run(shards)
		if !reflect.DeepEqual(rr, baseRR) {
			t.Fatalf("shards=%d clean-world RoundResults diverged", shards)
		}
		if reg != baseReg {
			t.Fatalf("shards=%d clean-world telemetry diverged", shards)
		}
	}
}

// TestShardPartition: lanes cover every vehicle exactly once, in
// contiguous index order, and shard counts clamp to the vehicle count.
func TestShardPartition(t *testing.T) {
	f, err := New(Config{Vehicles: 10, Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	shards := f.Shards()
	if len(shards) != 7 {
		t.Fatalf("shard count = %d", len(shards))
	}
	next := 0
	for i, sh := range shards {
		if sh.Index != i {
			t.Fatalf("shard %d has Index %d", i, sh.Index)
		}
		if sh.Lo != next || sh.Hi <= sh.Lo {
			t.Fatalf("shard %d range [%d,%d) not contiguous from %d", i, sh.Lo, sh.Hi, next)
		}
		if sh.Engine == nil {
			t.Fatalf("shard %d missing lane engine", i)
		}
		next = sh.Hi
	}
	if next != 10 {
		t.Fatalf("shards cover %d of 10 vehicles", next)
	}
	clamped, err := New(Config{Vehicles: 3, Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(clamped.Shards()); got != 3 {
		t.Fatalf("64 shards over 3 vehicles not clamped: %d lanes", got)
	}
}

// TestShardedUnknownService: decision-step errors surface through the
// canonical-order error path, naming the lowest-index vehicle.
func TestShardedUnknownService(t *testing.T) {
	f, err := New(Config{Vehicles: 6, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ShardedInvokeAll("ghost", 0); err == nil {
		t.Fatal("unknown service invoked")
	} else if !strings.Contains(err.Error(), "cav-0") {
		t.Fatalf("error does not name the first vehicle deterministically: %v", err)
	}
}

// TestShardedNonTolerantCompletesRoundBeforeError: in a faulted world
// without the resilience policy, a non-tolerant round still commits every
// prepared invocation before it reports the first error in vehicle-index
// order. Twin fleets from one seed, one driven tolerant and one not, end
// the erroring round with the same queue on every site and the same
// merged telemetry; only the non-tolerant aggregate stops at the erroring
// vehicle.
func TestShardedNonTolerantCompletesRoundBeforeError(t *testing.T) {
	const vehicles, seed = 21, 42
	build := func() *Fleet {
		f, err := New(rawChaosConfig(vehicles, 3, seed))
		if err != nil {
			t.Fatal(err)
		}
		f.InstrumentSharded(false)
		return f
	}
	tol, strict := build(), build()
	for r := 0; r < 40; r++ {
		now := time.Duration(r) * 400 * time.Millisecond
		want, err := tol.ShardedInvokeAllTolerant("kidnapper-search", now)
		if err != nil {
			t.Fatal(err)
		}
		got, err := strict.ShardedInvokeAll("kidnapper-search", now)
		if err == nil {
			if want.Failures != 0 || got != want {
				t.Fatalf("round %d: twins diverged without an error: %+v vs %+v", r, got, want)
			}
			continue
		}
		// The aggregate covers exactly the vehicles before the first
		// erroring one, none of which failed.
		failed := got.Invocations
		if failed >= vehicles-1 || got.Failures != 0 || want.Failures == 0 || want.Invocations != vehicles {
			t.Fatalf("round %d: strict aggregate %+v, tolerant %+v", r, got, want)
		}
		if name := tol.Vehicles()[failed].Name; !strings.HasPrefix(err.Error(), name+":") {
			t.Fatalf("round %d: error %q does not name vehicle %d (%s)", r, err, failed, name)
		}
		for i, s := range strict.Sites() {
			if a, b := s.PendingWork(now), tol.Sites()[i].PendingWork(now); a != b {
				t.Fatalf("round %d: site %s pending work %v after the strict round, %v after the tolerant one", r, s.Name(), a, b)
			}
		}
		strictReg, _ := strict.MergedTelemetry()
		tolReg, _ := tol.MergedTelemetry()
		if strictReg.Render() != tolReg.Render() {
			t.Fatalf("round %d: merged telemetry differs between the strict and the tolerant twin", r)
		}
		return
	}
	t.Fatal("no round errored: the faulted world never failed a commit")
}

// TestShardedFrozenSitesUnfrozen: the executor must leave sites unfrozen
// for the commit phase and after the round.
func TestShardedFrozenSitesUnfrozen(t *testing.T) {
	f, err := New(Config{Vehicles: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ShardedInvokeAll("kidnapper-search", 0); err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Sites() {
		if s.Frozen() {
			t.Fatalf("site %s still frozen after round", s.Name())
		}
	}
}

// TestShardedRaceUnderRunner drives sharded fleets inside the parallel
// replication runner — nested parallelism: replications across workers,
// shards within each fleet — so `go test -race` (the make verify gate)
// checks the decision/commit split end to end.
func TestShardedRaceUnderRunner(t *testing.T) {
	type summary struct {
		Rounds      int
		Invocations int
	}
	rep, err := runner.Run(runner.Config{Replications: 3, Parallel: 3, Seed: 9}, func(sh *runner.Shard) (summary, error) {
		cfg := chaosConfig(9, 4, 100+int64(sh.Index))
		cfg.RNG = sh.RNG
		f, err := New(cfg)
		if err != nil {
			return summary{}, err
		}
		f.InstrumentSharded(true)
		var s summary
		for r := 0; r < 4; r++ {
			rr, err := f.ShardedInvokeAllTolerant("kidnapper-search", time.Duration(r)*500*time.Millisecond)
			if err != nil {
				return summary{}, err
			}
			s.Rounds++
			s.Invocations += rr.Invocations
		}
		reg, _ := f.MergedTelemetry()
		sh.Obs.Metrics.Merge(reg)
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range rep.Results {
		if s.Rounds != 4 || s.Invocations != 36 {
			t.Fatalf("replication %d summary = %+v", i, s)
		}
	}
}

// BenchmarkShardedInvokeAllRound measures one round of the epoch-barrier
// executor (decision fan-out + barrier + canonical commit) over 50 vehicles
// of the benchmark topology at 4 shards.
func BenchmarkShardedInvokeAllRound(b *testing.B) {
	f, err := New(benchTopology(50, 4))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.ShardedInvokeAll("kidnapper-search", 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ShardedInvokeAll("kidnapper-search", time.Duration(i)*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTopology is the benchmark's fleet world (benchmark/fleet.go): 16 RSUs
// with disjoint 600 m disks plus the cloud, so a vehicle estimates against
// 17 sites of which it reaches at most two.
func benchTopology(vehicles, shards int) Config {
	return Config{
		Vehicles:       vehicles,
		RSUs:           16,
		RSURadiusM:     600,
		SpeedJitterMPH: 10,
		RNG:            sim.NewStream(101, 0),
		Shards:         shards,
	}
}

// BenchmarkPrepareInvoke measures the decision step by itself — one
// vehicle choosing among its four pipelines over the benchmark topology's
// 17 sites. In benchmark/'s traced fleet_clean pass (seed 42, 2-core Xeon)
// the decision phase is 0.54–0.55 of a round's busy time
// (fleet.decision_share) and the commit phase nearly all the rest.
func BenchmarkPrepareInvoke(b *testing.B) {
	f, err := New(benchTopology(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	f.InstrumentSharded(false)
	m := f.vehicles[0].Manager
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := m.PrepareInvoke("kidnapper-search", time.Duration(i)*time.Millisecond); p.Err() != nil {
			b.Fatal(p.Err())
		}
	}
}

// TestPrepareInvokeAllocs pins the steady-state allocation count of the
// decision step on the benchmark topology at zero. It was 780 when every
// estimate and plan re-validated and re-sorted the DAG into fresh
// string-keyed maps, and 33 while plans, device lists and choices were
// built afresh; now every estimate, plan and choice is built on scratch the
// vehicle's manager, engine and DSF own.
func TestPrepareInvokeAllocs(t *testing.T) {
	f, err := New(benchTopology(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	f.InstrumentSharded(false)
	m := f.vehicles[0].Manager
	now := time.Duration(0)
	prepare := func() {
		now += 250 * time.Millisecond
		if p := m.PrepareInvoke("kidnapper-search", now); p.Err() != nil || p.HungUp() {
			t.Fatalf("prepare: err %v, hung up %v", p.Err(), p.HungUp())
		}
	}
	prepare() // compile the DAG and its prefixes, size the scratch
	if n := testing.AllocsPerRun(50, prepare); n != 0 {
		t.Errorf("steady-state PrepareInvoke: %v allocs, want 0", n)
	}
}

// TestRoundAllocsPerVehicle bounds a whole serial round on the benchmark
// topology — decision, commit, metrics and aggregation — at 5 allocations
// per vehicle (4.02 measured). None of what remains is the decision's: it
// is the committed plan and its assignments, and histogram sample growth;
// the shard lane schedules one event per round, not one per vehicle.
func TestRoundAllocsPerVehicle(t *testing.T) {
	const vehicles = 50
	f, err := New(benchTopology(vehicles, 1))
	if err != nil {
		t.Fatal(err)
	}
	f.InstrumentSharded(false)
	now := time.Duration(0)
	round := func() {
		now += 250 * time.Millisecond
		if _, err := f.ShardedInvokeAll("kidnapper-search", now); err != nil {
			t.Fatal(err)
		}
	}
	round() // intern the metrics, compile the DAGs, size the scratch
	n := testing.AllocsPerRun(20, round) / vehicles
	t.Logf("steady-state round: %.2f allocs per vehicle", n)
	if n > 5 {
		t.Errorf("steady-state round: %.2f allocs per vehicle, want at most 5", n)
	}
}

// TestShardedSharedDAGAcrossShards registers ONE *tasks.DAG on every
// vehicle of a 4-shard fleet, edits it after registration so that the first
// decision phase recompiles it from all shards at once, and requires the
// rounds of a fleet whose vehicles each own a private copy of the same
// DAG. Run under -race: the compiled form is the only state the vehicles
// share outside the frozen sites.
func TestShardedSharedDAGAcrossShards(t *testing.T) {
	edit := func(d *tasks.DAG) { d.Tasks[1].GFLOP *= 3 }
	run := func(shared bool) []RoundResult {
		one := tasks.ALPR()
		var dags []*tasks.DAG
		f, err := New(cellConfig(24, 4, 5))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range f.Vehicles() {
			d := one
			if !shared {
				d = tasks.ALPR()
			}
			dags = append(dags, d)
			if err := v.Manager.Register(&edgeos.Service{Name: "plate-search", Priority: edgeos.PriorityInteractive,
				Deadline: 2 * time.Second, DAG: d, Image: []byte("a3")}); err != nil {
				t.Fatal(err)
			}
		}
		f.InstrumentSharded(false)
		if shared {
			edit(one)
		} else {
			for _, d := range dags {
				edit(d)
			}
		}
		var out []RoundResult
		for r := 0; r < 6; r++ {
			rr, err := f.ShardedInvokeAll("plate-search", time.Duration(r)*400*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rr)
		}
		return out
	}
	shared, private := run(true), run(false)
	if !reflect.DeepEqual(shared, private) {
		t.Fatalf("one shared DAG:\n%+v\nprivate DAGs:\n%+v", shared, private)
	}
	if shared[0].Invocations != 24 || shared[0].OffloadShare == 0 {
		t.Fatalf("round 0 = %+v", shared[0])
	}
}

// obsRun drives rounds epochs with the flight recorder and a telemetry
// sampler enabled, returning the merged event table and series render.
func obsRun(t *testing.T, f *Fleet, rounds int) (string, string) {
	t.Helper()
	f.InstrumentSharded(false)
	f.EnableFlightRecorder(4096)
	store := obs.NewSeriesStore(256)
	sp := obs.NewSampler(store, 100*time.Millisecond)
	if err := f.WatchTelemetry(sp); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(0)
	stop, err := sp.Start(eng)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		now := time.Duration(r) * 400 * time.Millisecond
		if _, err := f.ShardedInvokeAllTolerant("kidnapper-search", now); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntil(now + 400*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	return f.MergedFlightRecorder().RenderTable(), store.Render()
}

// TestFlightRecorderAndSeriesShardCountInvariant extends the differential
// contract to the observability layer: for every world, merged
// flight-recorder tables and sampled series renders are byte-identical
// for any shard count.
func TestFlightRecorderAndSeriesShardCountInvariant(t *testing.T) {
	const rounds, seed = 6, 42
	for _, world := range diffWorlds {
		t.Run(world.name, func(t *testing.T) {
			base := world.build(t, 1, seed)
			baseEvents, baseSeries := obsRun(t, base, rounds)
			if !strings.Contains(baseEvents, "commit.begin") {
				t.Fatalf("no commit-phase events recorded:\n%s", baseEvents)
			}
			if base.Faults() != nil && !strings.Contains(baseEvents, "outage.begin") {
				t.Fatalf("no outage events recorded:\n%s", baseEvents)
			}
			if !strings.Contains(baseSeries, "edgeos.invocations") {
				t.Fatalf("sampled series missing invocation counters:\n%s", baseSeries)
			}
			for _, shards := range []int{2, 4, 7} {
				events, series := obsRun(t, world.build(t, shards, seed), rounds)
				if events != baseEvents {
					t.Fatalf("shards=%d flight-recorder table diverged from shards=1:\n%s\nvs\n%s", shards, events, baseEvents)
				}
				if series != baseSeries {
					t.Fatalf("shards=%d series render diverged from shards=1:\n%s\nvs\n%s", shards, series, baseSeries)
				}
			}
		})
	}
}

// TestMergedFlightRecorderNilWithoutEnable: reading the merged log without
// EnableFlightRecorder is nil (and nil-safe to render).
func TestMergedFlightRecorderNilWithoutEnable(t *testing.T) {
	f, err := New(chaosConfig(3, 1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rec := f.MergedFlightRecorder(); rec != nil {
		t.Fatal("merged recorder without enable should be nil")
	}
	sp := obs.NewSampler(obs.NewSeriesStore(8), time.Second)
	if err := f.WatchTelemetry(sp); err == nil {
		t.Fatal("WatchTelemetry without InstrumentSharded should fail")
	}
}

// TestLateFlightRecorderLogsBreakerTransitions: a breaker reports into the
// recorder its engine holds when the transition fires, not the one it was
// created under, so a recorder enabled at round k logs every breaker.*
// event of rounds k and later — exactly what a recorder enabled before
// round 0 adds from round k on. (A hook captured at breaker creation logged
// none of them: every breaker here exists by round k.) The cut is by round,
// not by timestamp: a round's retry ladder stamps events at the virtual
// times its backoffs reach, which can pass the next round's start.
func TestLateFlightRecorderLogsBreakerTransitions(t *testing.T) {
	const rounds, k, epoch = 30, 10, 250 * time.Millisecond
	breakerEvents := func(f *Fleet) []string {
		var out []string
		for _, ev := range f.MergedFlightRecorder().Events() {
			if strings.HasPrefix(ev.Name, "breaker.") {
				out = append(out, fmt.Sprint(ev.At, ev.Name, ev.Fields))
			}
		}
		return out
	}
	// fromRoundK runs the world with the recorder enabled at round enableAt
	// and returns the breaker events rounds k.. logged, in merged order.
	fromRoundK := func(enableAt int) []string {
		f, err := New(chaosConfig(16, 2, 42))
		if err != nil {
			t.Fatal(err)
		}
		earlier := map[string]int{}
		for r := 0; r < rounds; r++ {
			if r == enableAt {
				f.EnableFlightRecorder(1 << 14)
			}
			if r == k {
				for _, ev := range breakerEvents(f) {
					earlier[ev]++
				}
			}
			if _, err := f.ShardedInvokeAllTolerant("kidnapper-search", time.Duration(r)*epoch); err != nil {
				t.Fatal(err)
			}
		}
		var out []string
		for _, ev := range breakerEvents(f) {
			if earlier[ev] > 0 {
				earlier[ev]--
				continue
			}
			out = append(out, ev)
		}
		return out
	}
	early, late := fromRoundK(0), fromRoundK(k)
	if len(early) == 0 {
		t.Fatal("world produced no breaker transitions from round k on; the test needs a harsher fault plan")
	}
	if !reflect.DeepEqual(early, late) {
		t.Fatalf("recorder enabled at round %d logged %d breaker events, enabled up front %d over the same rounds:\n%v\nvs\n%v",
			k, len(late), len(early), late, early)
	}
}
