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

// instrument hands every emitter its lane again, after a lane gained a
// store.
func (f *Fleet) instrument() {
	if f.injector != nil {
		f.injector.Instrument(f.lanes[1])
	}
	for i, v := range f.vehicles {
		v.Engine.Instrument(f.lanes[2+i])
		v.Manager.Instrument(f.lanes[2+i])
	}
}

// InstrumentSharded gives the injector lane and every vehicle lane a
// telemetry registry and, when withTrace is set, a tracer. Read the merged
// view with MergedTelemetry, or merge the lanes into a scope of your own
// with MergeInto.
func (f *Fleet) InstrumentSharded(withTrace bool) {
	for i := 1; i < len(f.lanes); i++ {
		lane := &f.lanes[i]
		lane.Metrics, lane.Tracer = telemetry.NewRegistry(), nil
		if withTrace {
			lane.Tracer = trace.New()
		}
	}
	f.instrument()
}

// EnableFlightRecorder gives every lane a bounded event ring of the given
// capacity (obs.DefaultEventCapacity when non-positive): the vehicles',
// the fleet's for commit-phase markers, the injector's for outage windows.
// Read the merged log with MergedFlightRecorder.
func (f *Fleet) EnableFlightRecorder(capacity int) {
	for i := range f.lanes {
		f.lanes[i].Events = obs.NewRecorder(capacity)
	}
	f.instrument()
}

// MergeInto merges the fleet's lanes into dst in canonical order — the
// fleet lane, the injector lane, then vehicles by index — which is
// independent of shard count, so what dst renders or exports is too. Only
// the stores dst holds take part.
func (f *Fleet) MergeInto(dst obs.Scope) {
	for _, lane := range f.lanes {
		dst.Merge(lane)
	}
}

// MergedTelemetry merges the lanes into one fresh registry and one fresh
// tracer (MergeInto's order). Without InstrumentSharded it returns empty
// instruments.
func (f *Fleet) MergedTelemetry() (*telemetry.Registry, *trace.Tracer) {
	dst := obs.Scope{Metrics: telemetry.NewRegistry(), Tracer: trace.New()}
	f.MergeInto(dst)
	return dst.Metrics, dst.Tracer
}

// MergedFlightRecorder merges the flight-recorder lanes into one ring
// (MergeInto's order) sized to hold every retained event. Nil when
// EnableFlightRecorder was not called.
func (f *Fleet) MergedFlightRecorder() *obs.Recorder {
	if f.lanes[0].Events == nil {
		return nil
	}
	total := 0
	for _, lane := range f.lanes {
		total += lane.Events.Len()
	}
	if total == 0 {
		total = 1
	}
	dst := obs.Scope{Events: obs.NewRecorder(total)}
	f.MergeInto(dst)
	return dst.Events
}

// WatchTelemetry registers the fleet's telemetry lanes with a sampler in
// canonical merge order, so sampled series accumulate cross-lane sums in a
// shard-count-independent order. Requires InstrumentSharded.
func (f *Fleet) WatchTelemetry(sp *obs.Sampler) error {
	if f.lanes[1].Metrics == nil {
		return fmt.Errorf("fleet: WatchTelemetry requires InstrumentSharded")
	}
	for _, lane := range f.lanes {
		sp.Watch(lane.Metrics)
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

// The flight-recorder markers around a round's commit phase.
var (
	evCommitBegin = &obs.EventKind{Component: "fleet", Severity: obs.SevDebug, Name: "commit.begin"}
	evCommitEnd   = &obs.EventKind{Component: "fleet", Severity: obs.SevDebug, Name: "commit.end"}
)

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
			// One event walks the shard's vehicles in index order, as one
			// event per vehicle scheduled in that order would.
			sh.Engine.At(now, func() {
				for i := sh.Lo; i < sh.Hi; i++ {
					m := f.vehicles[i].Manager
					p := m.PrepareInvoke(service, now)
					if p.Local() {
						// On-board decisions (and hang-ups and decision
						// errors) touch only vehicle-local state: finish
						// them here, inside the parallel phase.
						f.resBuf[i], f.errBuf[i] = m.CommitInvoke(p)
						continue
					}
					f.prepBuf[i] = p
				}
			})
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
	f.lanes[0].Events.Emit(now, evCommitBegin,
		trace.Int("offloads", offloads))
	for i, p := range f.prepBuf {
		if p == nil {
			continue
		}
		f.prepBuf[i] = nil
		f.resBuf[i], f.errBuf[i] = f.vehicles[i].Manager.CommitInvoke(p)
	}
	f.lanes[0].Events.Emit(now, evCommitEnd,
		trace.Int("committed", offloads))

	if !tolerant {
		for i, v := range f.vehicles {
			if f.errBuf[i] != nil {
				return f.aggregate(i), fmt.Errorf("%s: %w", v.Name, f.errBuf[i])
			}
		}
	}
	return f.aggregate(len(f.vehicles)), nil
}
