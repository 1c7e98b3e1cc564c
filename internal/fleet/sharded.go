// The fleet executor: epoch-barrier invocation rounds, the only way a
// fleet round runs.
//
// ShardedInvokeAll partitions the fleet's vehicles into S contiguous
// shards and runs each round as two phases:
//
//   - Decision phase (parallel): every shard's goroutine walks its
//     vehicles through PrepareInvoke on the shard's own sim.Engine lane.
//     Shared sites are frozen (xedge.Site.Freeze) so the phase is
//     read-only with respect to shared state; invocations whose decision
//     stayed on the vehicle (PreparedInvocation.Local) commit right here,
//     touching only vehicle-local state.
//   - Commit phase: after the barrier, the remaining prepared invocations
//     — the ones that offload — commit with Site.Submit reservations,
//     queueing delays, and bandwidth-budget charges in canonical
//     vehicle-index order: one loop on the fleet's own goroutine. The
//     phase always completes every prepared commit (complete-all), then
//     non-tolerant rounds report the first error in canonical order.
//
// Determinism contract: results are byte-identical for any shard count.
// Three properties make that hold. (1) Decisions read only epoch-start
// shared state (frozen sites, fault cursors advanced once per epoch), so
// a vehicle's choice cannot depend on which shard a neighbor landed in.
// (2) Per-vehicle state (DSF, path caches, breakers, service stats)
// evolves identically because each vehicle's work happens exactly once
// per round, on whichever lane owns it. (3) Everything order-sensitive —
// site commits, telemetry lane merges, trace exports, aggregation — runs
// in vehicle-index order, never shard order. The shard-order float
// accumulation you would get from merging per-shard registries is why
// telemetry lanes are per-vehicle, not per-shard.
//
// Contention model: within a round no vehicle sees another's commit.
// Every decision reads epoch-start state, so vehicles that arrive
// together all judge the edge by the queue the previous round left, and
// feel each other's load only through the commit-phase queueing delay and
// in the next round's estimates (the thundering-herd step in E12; see
// DESIGN.md). S = 1 is the serial case of this model — one lane walks the
// vehicles in index order — and TestShardedMatchesNaiveReference holds it
// and S = 3 to a hand-written reference round.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// shardStreamSeed roots the per-shard engine seeds.
const shardStreamSeed = 0x51A4D

// Shard is one lane of the sharded executor: a contiguous range of
// vehicle indices with its own virtual-time engine.
type Shard struct {
	// Index is the shard's position in [0, S).
	Index int
	// Engine is the shard's virtual-time lane; decision-phase work for
	// the shard's vehicles is scheduled and drained on it.
	Engine *sim.Engine
	// Lo and Hi bound the shard's vehicle index range [Lo, Hi).
	Lo, Hi int
}

// Shards returns the fleet's shard lanes, building them on first use.
// Vehicles are partitioned into contiguous ranges as equal as possible
// (the first vehicles%S shards take one extra).
func (f *Fleet) Shards() []*Shard {
	if f.shardSet != nil {
		return f.shardSet
	}
	n, s := len(f.vehicles), f.shards
	base, rem := n/s, n%s
	lo := 0
	f.shardSet = make([]*Shard, 0, s)
	for i := 0; i < s; i++ {
		size := base
		if i < rem {
			size++
		}
		f.shardSet = append(f.shardSet, &Shard{
			Index:  i,
			Engine: sim.NewEngine(shardStreamSeed + int64(i)),
			Lo:     lo,
			Hi:     lo + size,
		})
		lo += size
	}
	return f.shardSet
}

// telemetryLanes is the per-vehicle instrumentation behind sharded runs.
// Lanes are per vehicle — not per shard — because merge order must be a
// property of the fleet, not of the partition: merging in vehicle-index
// order gives the same float accumulation order and the same trace root
// order for every shard count.
type telemetryLanes struct {
	vehicleRegs []*telemetry.Registry
	vehicleTrcs []*trace.Tracer // all nil when tracing is off
	injReg      *telemetry.Registry
	injTrc      *trace.Tracer
}

// InstrumentSharded installs one telemetry registry (and, when withTrace
// is set, one tracer) per vehicle, plus a dedicated lane for the fault
// injector. It is the fleet's one instrumentation call: a single shared
// registry would interleave concurrent decision-phase emissions in
// scheduler order, which is race-safe but not shard-count-deterministic.
// Read the merged view with MergedTelemetry.
func (f *Fleet) InstrumentSharded(withTrace bool) {
	lanes := &telemetryLanes{
		vehicleRegs: make([]*telemetry.Registry, len(f.vehicles)),
		vehicleTrcs: make([]*trace.Tracer, len(f.vehicles)),
		injReg:      telemetry.NewRegistry(),
	}
	if withTrace {
		lanes.injTrc = trace.New(nil)
	}
	for i, v := range f.vehicles {
		lanes.vehicleRegs[i] = telemetry.NewRegistry()
		if withTrace {
			lanes.vehicleTrcs[i] = trace.New(nil)
		}
		v.Engine.Instrument(lanes.vehicleTrcs[i], lanes.vehicleRegs[i])
		v.Manager.Instrument(lanes.vehicleTrcs[i], lanes.vehicleRegs[i])
	}
	if f.injector != nil {
		f.injector.Instrument(lanes.injTrc, lanes.injReg)
	}
	f.tele = lanes
}

// MergedTelemetry merges the per-vehicle lanes into one registry and one
// tracer, in canonical order: the injector lane first, then vehicles by
// index. The merge order is independent of shard count, so the rendered
// registry and exported trace bytes are too. Without InstrumentSharded it
// returns empty instruments.
func (f *Fleet) MergedTelemetry() (*telemetry.Registry, *trace.Tracer) {
	reg := telemetry.NewRegistry()
	trc := trace.New(nil)
	if f.tele == nil {
		return reg, trc
	}
	reg.Merge(f.tele.injReg)
	trc.Merge(f.tele.injTrc)
	for i := range f.tele.vehicleRegs {
		reg.Merge(f.tele.vehicleRegs[i])
		trc.Merge(f.tele.vehicleTrcs[i])
	}
	return reg, trc
}

// flightLanes is the per-vehicle flight-recorder set, laned exactly like
// telemetryLanes and for the same reason: events emitted during the
// parallel decision phase must land on per-vehicle rings so the canonical
// merge (fleet lane, injector lane, vehicles by index) breaks
// same-timestamp ties identically for every shard count.
type flightLanes struct {
	capacity int
	fleet    *obs.Recorder // epoch-barrier phase markers
	inj      *obs.Recorder // fault outage windows
	vehicles []*obs.Recorder
}

// EnableFlightRecorder installs bounded per-vehicle event rings of the
// given capacity (obs.DefaultEventCapacity when non-positive) plus a fleet
// lane for commit-phase markers and an injector lane for outage windows.
// Call after New (so resilience breakers created by traffic pick up their
// transition hook) and read the merged log with MergedFlightRecorder.
func (f *Fleet) EnableFlightRecorder(capacity int) {
	lanes := &flightLanes{
		capacity: capacity,
		fleet:    obs.NewRecorder(capacity),
		inj:      obs.NewRecorder(capacity),
		vehicles: make([]*obs.Recorder, len(f.vehicles)),
	}
	for i, v := range f.vehicles {
		lanes.vehicles[i] = obs.NewRecorder(capacity)
		v.Engine.SetRecorder(lanes.vehicles[i])
	}
	if f.injector != nil {
		f.injector.SetRecorder(lanes.inj)
	}
	f.flight = lanes
}

// MergedFlightRecorder merges the flight-recorder lanes into one ring in
// canonical order — the fleet lane, the injector lane, then vehicles by
// index — sized to hold every retained event, so the merged log is
// identical for every shard count. Nil when EnableFlightRecorder was not
// called.
func (f *Fleet) MergedFlightRecorder() *obs.Recorder {
	if f.flight == nil {
		return nil
	}
	total := f.flight.fleet.Len() + f.flight.inj.Len()
	for _, r := range f.flight.vehicles {
		total += r.Len()
	}
	if total == 0 {
		total = 1
	}
	merged := obs.NewRecorder(total)
	merged.Merge(f.flight.fleet)
	merged.Merge(f.flight.inj)
	for _, r := range f.flight.vehicles {
		merged.Merge(r)
	}
	return merged
}

// WatchTelemetry registers the fleet's telemetry lanes with a sampler in
// canonical merge order (injector lane first, then vehicles by index), so
// sampled series accumulate cross-lane sums in a shard-count-independent
// order. Requires InstrumentSharded.
func (f *Fleet) WatchTelemetry(sp *obs.Sampler) error {
	if f.tele == nil {
		return fmt.Errorf("fleet: WatchTelemetry requires InstrumentSharded")
	}
	sp.Watch(f.tele.injReg)
	for _, reg := range f.tele.vehicleRegs {
		sp.Watch(reg)
	}
	return nil
}

// ShardedInvokeAll runs one epoch-barrier invocation round of the named
// service across the fleet at virtual time now (see the package-section
// comment at the top of this file for the phase structure and the
// determinism contract). It reports the first vehicle error in canonical
// order — but the whole round has already run by then (the commit phase
// completes every prepared commit, so a round's side effects do not
// depend on whether the caller tolerates errors); only the returned
// aggregate stops at the erroring vehicle. Under fault injection use
// ShardedInvokeAllTolerant.
func (f *Fleet) ShardedInvokeAll(service string, now time.Duration) (RoundResult, error) {
	return f.shardedInvokeAll(service, now, false)
}

// ShardedInvokeAllTolerant is ShardedInvokeAll for faulted worlds:
// erroring vehicles are counted in Failures and the round continues.
func (f *Fleet) ShardedInvokeAllTolerant(service string, now time.Duration) (RoundResult, error) {
	return f.shardedInvokeAll(service, now, true)
}

func (f *Fleet) shardedInvokeAll(service string, now time.Duration, tolerant bool) (RoundResult, error) {
	shards := f.Shards()
	// Epoch boundary: the only injector mutation of the round (outage
	// transitions, availability flips, window-cursor advance).
	if f.injector != nil {
		f.injector.AdvanceTo(now)
	}
	for i := range f.prepBuf {
		f.prepBuf[i] = nil
		f.errBuf[i] = nil
	}

	// Decision phase: freeze shared sites, fan shards out, barrier.
	for _, s := range f.sites {
		s.Freeze()
	}
	var wg sync.WaitGroup
	laneErrs := make([]error, len(shards))
	for si, sh := range shards {
		wg.Add(1)
		go func(si int, sh *Shard) {
			defer wg.Done()
			for i := sh.Lo; i < sh.Hi; i++ {
				i := i
				v := f.vehicles[i]
				sh.Engine.At(now, func() {
					p := v.Manager.PrepareInvoke(service, now)
					if p.Local() {
						// On-board decisions (and hang-ups and decision
						// errors) touch only vehicle-local state: finish
						// them here, inside the parallel phase.
						f.resBuf[i], f.errBuf[i] = v.Manager.CommitInvoke(p)
						return
					}
					f.prepBuf[i] = p
				})
			}
			laneErrs[si] = sh.Engine.RunUntil(now)
		}(si, sh)
	}
	wg.Wait()
	for _, s := range f.sites {
		s.Unfreeze()
	}
	for _, err := range laneErrs {
		if err != nil {
			return RoundResult{}, fmt.Errorf("fleet: shard lane failed to drain: %w", err)
		}
	}

	// Commit phase: apply shared-site interactions in vehicle-index order.
	// Completes every prepared commit before any error reporting, so the
	// round's side effects are identical for any shard count even when a
	// vehicle errors.
	offloads := 0
	for _, p := range f.prepBuf {
		if p != nil {
			offloads++
		}
	}
	if f.flight != nil {
		f.flight.fleet.Emit(now, "fleet", obs.SevDebug, "commit.begin",
			obs.Int("offloads", offloads))
	}
	for i, p := range f.prepBuf {
		if p == nil {
			continue
		}
		f.prepBuf[i] = nil
		f.resBuf[i], f.errBuf[i] = f.vehicles[i].Manager.CommitInvoke(p)
	}
	if f.flight != nil {
		f.flight.fleet.Emit(now, "fleet", obs.SevDebug, "commit.end",
			obs.Int("committed", offloads))
	}

	if !tolerant {
		for i, v := range f.vehicles {
			if f.errBuf[i] != nil {
				return f.aggregate(i), fmt.Errorf("%s: %w", v.Name, f.errBuf[i])
			}
		}
	}
	return f.aggregate(len(f.vehicles)), nil
}
