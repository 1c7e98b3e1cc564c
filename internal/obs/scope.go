package obs

import (
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Scope is the one value observability reaches a component through: the
// four stores a component can report into, handed over whole at
// construction or by the component's single Instrument call. The zero
// value is "everything off" — all four stores are nil-safe, so a component
// holding a zero Scope emits through it for free — and a Scope is a plain
// value: copying it shares the stores.
//
// A run that must stay deterministic at any worker or shard count gives
// every concurrent emitter a private Scope (a lane) and merges the lanes
// afterwards in a canonical order. For a fleet that order is the fleet's
// own lane, the fault injector's, then the vehicles by index; for a
// replicated run it is the replications by index.
type Scope struct {
	Metrics *telemetry.Registry
	Tracer  *trace.Tracer
	Events  *Recorder
	Series  *SeriesStore
}

// Merge folds src's stores into s's, store by store. Only the stores both
// sides have take part, src is only read, and merging a scope into itself
// is a no-op. Each store's Merge appends after what the destination
// already holds, so merging lanes in index order gives the same bytes
// however many workers filled them.
func (s Scope) Merge(src Scope) {
	s.Metrics.Merge(src.Metrics)
	s.Tracer.Merge(src.Tracer)
	s.Events.Merge(src.Events)
	s.Series.Merge(src.Series)
}
