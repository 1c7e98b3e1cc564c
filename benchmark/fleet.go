package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/edgeos"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
)

// fleetTailPct is the fleet workloads' tail percentile: a run measures
// 60-100 rounds, and p80 is the highest round number that keeps ten samples
// beyond it from 50 rounds up.
const fleetTailPct = 80

// fleetSliceRounds is how many rounds make one slice of the meter.
const fleetSliceRounds = 4

// fleetWorld is one fleet plus, for the chaos workload, the sampler that
// watches its telemetry on a kernel of its own.
type fleetWorld struct {
	f        *fleet.Fleet
	vehicles []*fleet.Vehicle
	chaos    bool
	round    int

	samplerEng *sim.Engine
	sampler    *obs.Sampler

	// Hand-driven rounds reuse these.
	pending []*edgeos.PreparedInvocation
	results []edgeos.InvocationResult
	errs    []error
}

// faultPlan is the E17 fault plan (site outages, link degradation, exec
// faults) over the given horizon of virtual time.
func faultPlan(horizon time.Duration) *faults.PlanConfig {
	return &faults.PlanConfig{
		Horizon:             horizon,
		MeanTimeToOutage:    2500 * time.Millisecond,
		MeanOutage:          600 * time.Millisecond,
		MeanTimeToDegrade:   2 * time.Second,
		MeanDegrade:         800 * time.Millisecond,
		MeanTimeToExecFault: 1500 * time.Millisecond,
		MeanExecFault:       400 * time.Millisecond,
	}
}

// newFleetWorld builds the E16 cell topology (16 RSUs with disjoint 600 m
// disks, jittered speeds, the default kidnapper-search service) and, for
// chaos, everything fleet_clean leaves off.
func newFleetWorld(ctx *runCtx, chaos bool, shards int) (*fleetWorld, error) {
	cfg := fleet.Config{
		Vehicles:       ctx.sc.Vehicles,
		RSUs:           16,
		RSURadiusM:     600,
		SpeedJitterMPH: 10,
		RNG:            sim.NewStream(ctx.seed, streamFleet),
		Shards:         shards,
	}
	if chaos {
		pol := offload.DefaultPolicy()
		cfg.Resilience = &pol
		// Sized to the longest run the scale allows.
		cfg.Faults = faultPlan(time.Duration(ctx.sc.MaxRounds)*fleetEpoch + 2*time.Second)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	f.InstrumentSharded(false)
	w := &fleetWorld{f: f, vehicles: f.Vehicles(), chaos: chaos}
	if chaos {
		f.EnableFlightRecorder(512)
		for _, v := range w.vehicles {
			v.Engine.SetBandwidthBudget(48e6)
		}
		w.sampler = obs.NewSampler(obs.NewSeriesStore(0), 0)
		if err := f.WatchTelemetry(w.sampler); err != nil {
			return nil, err
		}
		w.samplerEng = sim.NewEngine(0)
		if _, err := w.sampler.Start(w.samplerEng); err != nil {
			return nil, err
		}
	}
	n := len(w.vehicles)
	w.pending = make([]*edgeos.PreparedInvocation, n)
	w.results = make([]edgeos.InvocationResult, n)
	w.errs = make([]error, n)
	return w, nil
}

func (w *fleetWorld) now() time.Duration { return time.Duration(w.round) * fleetEpoch }

// step runs one round through the executor under test.
func (w *fleetWorld) step() (fleet.RoundResult, error) {
	now := w.now()
	var rr fleet.RoundResult
	var err error
	if w.chaos {
		rr, err = w.f.ShardedInvokeAllTolerant(fleetService, now)
	} else {
		rr, err = w.f.ShardedInvokeAll(fleetService, now)
	}
	if err != nil {
		return rr, fmt.Errorf("round %d: %w", w.round, err)
	}
	if w.samplerEng != nil {
		if err := w.samplerEng.RunUntil(now + fleetEpoch); err != nil {
			return rr, err
		}
	}
	w.round++
	return rr, nil
}

// handStep runs one round by hand through the public API, in the executor's
// own order at one shard — fault cursor, freeze, PrepareInvoke per vehicle
// on the shard's kernel (local decisions commit there), unfreeze, remote
// commits in vehicle-index order — with a span around each call.
func (w *fleetWorld) handStep(ln *lane) (fleet.RoundResult, error) {
	now, op := w.now(), int64(w.round)
	round := ln.begin("fleet.round", op)
	if inj := w.f.Faults(); inj != nil {
		s := ln.begin("faults.advance", op)
		inj.AdvanceTo(now)
		ln.end(s)
	}
	decision := ln.begin("fleet.decision", op)
	for _, s := range w.f.Sites() {
		s.Freeze()
	}
	eng := w.f.Shards()[0].Engine
	for i := range w.vehicles {
		i, m := i, w.vehicles[i].Manager
		w.pending[i], w.errs[i] = nil, nil
		eng.At(now, func() {
			s := ln.begin("edgeos.prepare", op)
			p := m.PrepareInvoke(fleetService, now)
			ln.end(s)
			if p.Local() {
				s := ln.begin("edgeos.commit_local", op)
				w.results[i], w.errs[i] = m.CommitInvoke(p)
				ln.end(s)
				return
			}
			w.pending[i] = p
		})
	}
	loop := ln.begin("sim.event_loop", op)
	err := eng.RunUntil(now)
	ln.end(loop)
	for _, s := range w.f.Sites() {
		s.Unfreeze()
	}
	ln.end(decision)
	if err != nil {
		return fleet.RoundResult{}, fmt.Errorf("round %d: shard kernel: %w", w.round, err)
	}
	commit := ln.begin("fleet.commit", op)
	for i, p := range w.pending {
		if p == nil {
			continue
		}
		s := ln.begin("edgeos.commit_remote", op)
		w.results[i], w.errs[i] = w.vehicles[i].Manager.CommitInvoke(p)
		ln.end(s)
	}
	ln.end(commit)
	rr := aggregateRound(w.results, w.errs)
	if w.samplerEng != nil {
		s := ln.begin("obs.sampler", op)
		err = w.samplerEng.RunUntil(now + fleetEpoch)
		ln.end(s)
	}
	ln.end(round)
	w.round++
	return rr, err
}

// aggregateRound folds per-vehicle outcomes into a RoundResult the way the
// executor does, so a hand-driven round can be compared with an executor one.
func aggregateRound(results []edgeos.InvocationResult, errs []error) fleet.RoundResult {
	var rr fleet.RoundResult
	offloaded := 0
	for i := range results {
		rr.Invocations++
		if errs[i] != nil {
			rr.Failures++
			continue
		}
		res := &results[i]
		if res.HungUp {
			rr.HangUps++
			continue
		}
		rr.Total += res.Latency
		if res.Latency > rr.Max {
			rr.Max = res.Latency
		}
		if res.Dest != offload.OnboardName {
			offloaded++
		}
		if res.DeadlineMet {
			rr.DeadlineHits++
		}
		if res.FellBackTo != "" {
			rr.Fallbacks++
		}
		if res.Degraded {
			rr.Degraded++
		}
	}
	if done := rr.Invocations - rr.HangUps - rr.Failures; done > 0 {
		rr.OffloadShare = float64(offloaded) / float64(done)
	}
	return rr
}

func digestRound(h hash.Hash64, round int, rr fleet.RoundResult) {
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%.9f|%d|%d|%d|%d\n", round, rr.Invocations, rr.HangUps,
		rr.Total, rr.Max, rr.OffloadShare, rr.Failures, rr.DeadlineHits, rr.Fallbacks, rr.Degraded)
}

// fleetTotals accumulates the simulated outcome of the measured rounds.
type fleetTotals struct {
	rounds, invocations, hangups, failures   int
	deadlineHits, fallbacks, degraded, wrong int
	offloadShare                             float64
}

func (t *fleetTotals) add(rr fleet.RoundResult, vehicles int, clean bool) {
	t.rounds++
	t.invocations += rr.Invocations
	t.hangups += rr.HangUps
	t.failures += rr.Failures
	t.deadlineHits += rr.DeadlineHits
	t.fallbacks += rr.Fallbacks
	t.degraded += rr.Degraded
	t.offloadShare += rr.OffloadShare
	// A round that lost invocations, or a clean world that failed any, is
	// the harness's definition of a failed op.
	if rr.Invocations != vehicles {
		t.wrong += vehicles
	} else if clean {
		t.wrong += rr.Failures
	}
}

// simulated writes the outcome ratios. They are simulated statistics: a
// host-speed change must leave them identical for a given round count.
func (t *fleetTotals) simulated(layer map[string]float64) {
	if t.invocations == 0 {
		return
	}
	inv := float64(t.invocations)
	layer["fleet.round.count"] = float64(t.rounds)
	layer["fleet.offload_share"] = t.offloadShare / float64(t.rounds)
	layer["edgeos.hangup_ratio"] = float64(t.hangups) / inv
	layer["edgeos.commit.fail_count"] = float64(t.failures)
	layer["offload.fallback_ratio"] = float64(t.fallbacks) / inv
	layer["offload.degraded_ratio"] = float64(t.degraded) / inv
	layer["offload.deadline_hit_ratio"] = float64(t.deadlineHits) / inv
	// On fleet_chaos this is what the seeded fault plan failed outright.
	layer["fail_ratio"] = float64(t.failures) / inv
}

// warmUp runs the untimed rounds and returns their digest: every
// RoundResult plus the merged telemetry render at the end of warm-up.
func (w *fleetWorld) warmUp(ctx *runCtx, ln *lane, byHand bool) (string, error) {
	h := fnv.New64a()
	for w.round < ctx.sc.WarmRounds {
		r := w.round
		var rr fleet.RoundResult
		var err error
		if byHand {
			rr, err = w.handStep(ln)
		} else {
			rr, err = w.step()
		}
		if err != nil {
			return "", err
		}
		digestRound(h, r, rr)
	}
	reg, _ := w.f.MergedTelemetry()
	fmt.Fprint(h, reg.Render())
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// chain runs n rounds and returns their chained digest.
func (w *fleetWorld) chain(n int) (string, error) {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		r := w.round
		rr, err := w.step()
		if err != nil {
			return "", err
		}
		digestRound(h, r, rr)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func runFleetClean(ctx *runCtx) (*result, error) { return runFleet(ctx, "fleet_clean", false, 1, 2) }
func runFleetChaos(ctx *runCtx) (*result, error) { return runFleet(ctx, "fleet_chaos", true, 2, 1) }

// runFleet measures rounds of the sharded executor at `shards`, then checks
// the digests against a second world at `otherShards` and against the golden.
func runFleet(ctx *runCtx, name string, chaos bool, shards, otherShards int) (*result, error) {
	if ctx.traced {
		return runFleetTraced(ctx, name, chaos)
	}
	res := newResult(name, ctx.seed, false)
	sc := ctx.sc

	// Set-up: build the world and warm it, several times for a steady
	// median; the last world is the one measured.
	var w *fleetWorld
	var setups []float64
	var warm string
	for rep := 0; ctx.setUpAgain(setups); rep++ {
		sw := startStopwatch()
		nw, err := newFleetWorld(ctx, chaos, shards)
		if err != nil {
			return nil, err
		}
		d, err := nw.warmUp(ctx, nil, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sw.seconds())
		if rep > 0 && d != warm {
			res.fail("set-up %d warm-up digest %s differs from %s: the world is not a function of the seed", rep, d, warm)
		}
		w, warm = nw, d
	}
	res.Digests["warm"] = warm

	var tot fleetTotals
	var lat []float64
	chainHash := fnv.New64a()
	m := newMeter()
	deadline := time.Now().Add(ctx.seconds)
	m.resume()
	for w.round < sc.MaxRounds && (time.Now().Before(deadline) || tot.rounds < sc.DigestRounds) {
		r := w.round
		t0 := time.Now()
		rr, err := w.step()
		if err != nil {
			return nil, err
		}
		lat = append(lat, inMS(time.Since(t0)))
		tot.add(rr, sc.Vehicles, !chaos)
		if tot.rounds%fleetSliceRounds == 0 {
			m.mark(int64(fleetSliceRounds * sc.Vehicles))
			m.grantLast(lat[len(lat)-fleetSliceRounds:])
		}
		if tot.rounds <= sc.DigestRounds {
			digestRound(chainHash, r, rr)
			if tot.rounds == sc.DigestRounds {
				res.Digests["rounds"] = fmt.Sprintf("%016x", chainHash.Sum64())
			}
		}
	}
	if chaos {
		// The canonical merges are part of the workload: once, at the end,
		// inside the window.
		reg, _ := w.f.MergedTelemetry()
		events := w.f.MergedFlightRecorder()
		if reg == nil || events == nil || events.Len() == 0 {
			res.fail("merged telemetry or flight recorder is empty after a faulted run")
		}
	}
	rest := tot.rounds % fleetSliceRounds
	m.mark(int64(rest * sc.Vehicles))
	m.grantLast(lat[len(lat)-rest:])
	m.pause()

	ops := int64(tot.rounds) * int64(sc.Vehicles)
	res.Attempted, res.Failed = ops, int64(tot.wrong)
	res.window(m, summarise(lat, fleetTailPct), setups)
	tot.simulated(res.Layer)
	res.note("%d rounds of %d vehicles at %d shard(s)", tot.rounds, sc.Vehicles, shards)

	// Shard count must not change a byte of simulation output.
	other, err := newFleetWorld(ctx, chaos, otherShards)
	if err != nil {
		return nil, err
	}
	otherWarm, err := other.warmUp(ctx, nil, false)
	if err != nil {
		return nil, err
	}
	otherRounds, err := other.chain(sc.DigestRounds)
	if err != nil {
		return nil, err
	}
	if otherWarm != warm || otherRounds != res.Digests["rounds"] {
		res.fail("digest at %d shard(s) warm=%s rounds=%s, at %d shard(s) warm=%s rounds=%s",
			shards, warm, res.Digests["rounds"], otherShards, otherWarm, otherRounds)
	}
	checkGolden(ctx, res)
	return res, nil
}

// runFleetTraced is the per-layer pass: an executor world gives the
// untraced reference and the per-round digests, an identical world driven
// by hand with spans gives the layer budget, and a third takes the probes.
func runFleetTraced(ctx *runCtx, name string, chaos bool) (*result, error) {
	res := newResult(name, ctx.seed, true)
	sc := ctx.sc
	ln := ctx.rec.lane()

	// Reference: the executor at one shard, for a third of the run.
	ref, err := newFleetWorld(ctx, chaos, 1)
	if err != nil {
		return nil, err
	}
	warm, err := ref.warmUp(ctx, nil, false)
	if err != nil {
		return nil, err
	}
	var refRounds []fleet.RoundResult
	deadline := time.Now().Add(ctx.seconds / 3)
	sw := startStopwatch()
	for ref.round < sc.MaxRounds && (time.Now().Before(deadline) || len(refRounds) < sc.DigestRounds) {
		rr, err := ref.step()
		if err != nil {
			return nil, err
		}
		refRounds = append(refRounds, rr)
	}
	if chaos {
		ref.f.MergedTelemetry()
		ref.f.MergedFlightRecorder()
	}
	refTime := sw.seconds()

	// Traced: the same rounds by hand.
	w, err := newFleetWorld(ctx, chaos, 1)
	if err != nil {
		return nil, err
	}
	handWarm, err := w.warmUp(ctx, nil, true)
	if err != nil {
		return nil, err
	}
	if handWarm != warm {
		res.fail("hand-driven warm-up digest %s differs from the executor's %s", handWarm, warm)
	}
	res.Digests["warm"] = warm
	var tot fleetTotals
	mismatches := 0
	root := ln.begin("workload", -1)
	sw = startStopwatch()
	for i := range refRounds {
		rr, err := w.handStep(ln)
		if err != nil {
			return nil, err
		}
		tot.add(rr, sc.Vehicles, !chaos)
		if rr != refRounds[i] {
			mismatches++
		}
	}
	if chaos {
		s := ln.begin("telemetry.merge", -1)
		w.f.MergedTelemetry()
		ln.end(s)
		s = ln.begin("obs.merge", -1)
		w.f.MergedFlightRecorder()
		ln.end(s)
	}
	tracedTime := sw.seconds()
	ln.end(root)
	if mismatches > 0 {
		res.fail("%d of %d hand-driven rounds differ from the executor's RoundResult: the decomposition measures different work", mismatches, len(refRounds))
	}
	h := fnv.New64a()
	for i, rr := range refRounds {
		digestRound(h, sc.WarmRounds+i, rr)
	}
	res.Digests["traced_rounds"] = fmt.Sprintf("%016x", h.Sum64())

	ops := int64(tot.rounds) * int64(sc.Vehicles)
	res.Attempted, res.Failed = ops, int64(tot.wrong)
	tot.simulated(res.Layer)
	L := res.Layer
	L["trace.overhead_frac"] = 1 - refTime/tracedTime
	layers := ctx.rec.layers()
	perCall := func(lt layerTime) float64 {
		if lt.Count == 0 {
			return 0
		}
		return float64(lt.Busy) / float64(lt.Count)
	}
	L["fleet.decision.busy_ms"] = inMS(layers["fleet.decision"].Busy)
	L["fleet.commit.busy_ms"] = inMS(layers["fleet.commit"].Busy)
	if b := layers["fleet.round"].Busy; b > 0 {
		L["fleet.decision_share"] = float64(layers["fleet.decision"].Busy) / float64(b)
	}
	L["fleet.merge_telemetry_ms"] = inMS(layers["telemetry.merge"].Busy)
	L["fleet.merge_flight_ms"] = inMS(layers["obs.merge"].Busy)
	L["telemetry.merge.busy_ms"] = inMS(layers["telemetry.merge"].Busy)
	L["obs.merge.busy_ms"] = inMS(layers["obs.merge"].Busy)
	L["edgeos.prepare.count"] = float64(layers["edgeos.prepare"].Count)
	L["edgeos.prepare.busy_ms"] = inMS(layers["edgeos.prepare"].Busy)
	L["edgeos.prepare.ns_per_call"] = perCall(layers["edgeos.prepare"])
	L["edgeos.commit_local.busy_ms"] = inMS(layers["edgeos.commit_local"].Busy)
	L["edgeos.commit_remote.busy_ms"] = inMS(layers["edgeos.commit_remote"].Busy)
	L["edgeos.commit_remote.ns_per_call"] = perCall(layers["edgeos.commit_remote"])
	L["faults.advance.busy_ms"] = inMS(layers["faults.advance"].Busy)
	if ev := layers["edgeos.prepare"].Count; ev > 0 {
		// One kernel event per vehicle per round: the loop's self time is
		// what the kernel itself costs per event.
		L["sim.event_loop.ns_per_event"] = float64(layers["sim.event_loop"].Self) / float64(ev)
	}
	var pendingWork time.Duration
	for _, s := range w.f.Sites() {
		pendingWork += s.PendingWork(w.now())
	}
	L["xedge.pending_work_s"] = pendingWork.Seconds()
	if sp := layers["obs.sampler"]; sp.Count > 0 && w.sampler != nil && w.sampler.Ticks() > 0 {
		L["obs.sampler_tick.ns_per_call"] = float64(sp.Busy) / float64(w.sampler.Ticks())
	}
	res.note("traced %d rounds by hand in %.3f s; executor took %.3f s", tot.rounds, tracedTime, refTime)

	speedup, err := shardSpeedup(ctx, chaos)
	if err != nil {
		return nil, err
	}
	L["fleet.shard_speedup"] = speedup
	if err := fleetProbes(ctx, chaos, L); err != nil {
		return nil, err
	}
	return res, nil
}

// shardSpeedup is ops/s at two shards over ops/s at one, each on a fresh
// warmed world over the same slice of rounds.
func shardSpeedup(ctx *runCtx, chaos bool) (float64, error) {
	var wall [2]time.Duration
	for i, shards := range []int{1, 2} {
		w, err := newFleetWorld(ctx, chaos, shards)
		if err != nil {
			return 0, err
		}
		if _, err := w.warmUp(ctx, nil, false); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := w.chain(ctx.sc.SpeedupSlice); err != nil {
			return 0, err
		}
		wall[i] = time.Since(t0)
	}
	return wall[0].Seconds() / wall[1].Seconds(), nil
}
