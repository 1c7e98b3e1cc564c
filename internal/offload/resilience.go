package offload

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/trace"
	"repro/internal/xedge"
)

// Policy configures the engine's resilient execution path (paper §III,
// §IV-C: services must keep meeting deadlines when RSUs vanish behind the
// vehicle, links degrade at speed, and edge servers fail). Zero fields
// take the defaults documented per knob, which is what DefaultPolicy
// returns.
type Policy struct {
	// MaxAttempts bounds tries per destination, first attempt included
	// (default 3).
	MaxAttempts int
	// BreakerThreshold consecutive failures open a destination's circuit
	// breaker (default 3); BreakerCooldown is the open interval before a
	// half-open probe (default 2s). Breakers are timed on the virtual
	// clock.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

const (
	// backoffBase is the wait before the first retry. The wait grows by
	// backoffFactor per retry, capped at backoffMax. Backoff is
	// deterministic — no jitter — and is charged against the caller's
	// deadline in virtual time.
	backoffBase   = 50 * time.Millisecond
	backoffFactor = 2.0
	backoffMax    = 800 * time.Millisecond
	// degradeFactor scales GFLOP and I/O bytes of the compressed model
	// variant that is the last rung of the graceful degradation ladder,
	// run when even on-board execution would miss the deadline.
	degradeFactor = 0.5
)

// DefaultPolicy returns the baseline resilience configuration.
func DefaultPolicy() Policy { return Policy{}.withDefaults() }

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 2 * time.Second
	}
	return p
}

// backoff returns the deterministic wait after the attempt-th failed try.
func backoff(attempt int) time.Duration {
	d := float64(backoffBase)
	for i := 1; i < attempt; i++ {
		d *= backoffFactor
		if d >= float64(backoffMax) {
			return backoffMax
		}
	}
	return time.Duration(d)
}

// Outcome records how a resilient execution concluded.
type Outcome struct {
	// Dest is the destination that ultimately completed the DAG ("" when
	// execution was exhausted without success).
	Dest string `json:"dest"`
	// Attempts counts Execute calls made, across all destinations.
	Attempts int `json:"attempts"`
	// Retries counts backoff waits taken (attempts beyond the first per
	// destination).
	Retries int `json:"retries"`
	// Fallbacks counts destination switches; FellBackTo names the final
	// destination when it differs from the chosen one.
	Fallbacks  int    `json:"fallbacks"`
	FellBackTo string `json:"fellBackTo,omitempty"`
	// Degraded reports that the compressed model variant ran.
	Degraded bool `json:"degraded"`
	// BreakerSkips counts destinations skipped because their circuit
	// breaker rejected traffic.
	BreakerSkips int `json:"breakerSkips"`
	// DeadlineMet is true when the work completed by the caller's
	// absolute deadline (always true when no deadline was given).
	DeadlineMet bool `json:"deadlineMet"`
}

// SetResilience enables the resilient execution path with a copy of pol
// (see ExecuteResilient); nil disables it and discards breaker state.
func (e *Engine) SetResilience(pol *Policy) {
	if pol == nil {
		e.policy = nil
		e.breakers = nil
		return
	}
	p := pol.withDefaults()
	e.policy = &p
	e.breakers = make(map[string]*Breaker)
}

// Resilience returns the active policy (nil when disabled).
func (e *Engine) Resilience() *Policy { return e.policy }

// breakerFor returns (creating if needed) the breaker guarding dest. Every
// breaker is hooked to the flight recorder the engine's scope holds when a
// transition fires, so each open/half-open/close leaves a structured event
// from the moment a recorder arrives, whenever the breaker was created.
func (e *Engine) breakerFor(dest string) *Breaker {
	b, ok := e.breakers[dest]
	if !ok {
		b = NewBreaker(e.policy.BreakerThreshold, e.policy.BreakerCooldown)
		b.OnChange(func(from, to BreakerState, now time.Duration) {
			e.scope.Events.Emit(now, &breakerEvents[to],
				trace.String("dest", dest), trace.String("from", from.String()))
		})
		e.breakers[dest] = b
	}
	return b
}

// DegradedDAG returns a compressed-model variant of dag: every task's
// GFLOP and I/O bytes scaled by factor (the pruning/quantization latency
// model of §IV-E). The input DAG is not mutated.
func DegradedDAG(dag *tasks.DAG, factor float64) *tasks.DAG {
	out := &tasks.DAG{Name: dag.Name + "-degraded", Tasks: make([]*tasks.Task, 0, len(dag.Tasks))}
	for _, t := range dag.Tasks {
		cp := *t
		cp.GFLOP *= factor
		cp.InputBytes *= factor
		cp.OutputBytes *= factor
		cp.Deps = append([]string(nil), t.Deps...)
		out.Tasks = append(out.Tasks, &cp)
	}
	return out
}

// The flight-recorder events of the resilient ladder's rungs.
var (
	evFallback  = &obs.EventKind{Component: "offload", Severity: obs.SevInfo, Name: "resilient.fallback"}
	evOnboard   = &obs.EventKind{Component: "offload", Severity: obs.SevWarn, Name: "resilient.onboard"}
	evExhausted = &obs.EventKind{Component: "offload", Severity: obs.SevError, Name: "resilient.exhausted"}
	evDegraded  = &obs.EventKind{Component: "offload", Severity: obs.SevWarn, Name: "resilient.degraded"}
)

// ExecuteResilient commits the chosen estimate under the engine's
// resilience policy: failed remote executions are retried with
// deterministic exponential backoff (charged against the absolute
// virtual-time deadline; 0 means none), destinations whose breaker is
// open are skipped, and when a destination is exhausted the engine walks
// the graceful-degradation ladder — next-best feasible estimate, then
// on-board DSF execution, optionally on a compressed model variant. It
// returns the realized completion time plus an Outcome record. With no
// policy installed it behaves exactly like Execute (one attempt, no
// fallback).
//
// Phase contract: ExecuteResilient is a commit-step API — the remote
// ladder (remoteLadder) calls Site.Submit and charges the bandwidth
// budget, so it belongs to the single-threaded commit phase of an
// epoch-barrier fleet round. The one exception is a decision that chose
// the vehicle itself: when est.Dest is OnboardName the remote ladder never
// runs — the graceful-degradation ladder only ever walks *toward* the
// vehicle (onboardRung) — so the whole call touches vehicle-local state
// only and may run inside the parallel decision phase. The decision step
// itself (Decide/Estimates) never mutates shared sites.
func (e *Engine) ExecuteResilient(dag *tasks.DAG, est Estimate, now, deadline time.Duration) (time.Duration, Outcome, error) {
	if e.policy == nil {
		done, err := e.Execute(dag, est, now)
		out := Outcome{Attempts: 1}
		if err == nil {
			out.Dest = est.Dest
			out.DeadlineMet = deadline <= 0 || done <= deadline
		}
		return done, out, err
	}
	if dag == nil {
		return 0, Outcome{}, fmt.Errorf("offload: nil DAG")
	}
	pol := *e.policy
	span := e.scope.Tracer.StartSpanAt("offload", "offload.resilient", now,
		trace.String("chosen", est.Dest), trace.String("dag", dag.Name))
	if deadline > 0 {
		span.SetAttr(trace.Dur("deadline", deadline-now))
	}
	out := Outcome{}

	t := now
	if done, dest, ok := e.remoteLadder(dag, est, &t, deadline, &out, pol); ok {
		out.Dest = dest
		if dest != est.Dest {
			out.FellBackTo = dest
			e.scope.Events.Emit(t, evFallback,
				trace.String("dag", dag.Name), trace.String("from", est.Dest),
				trace.String("to", dest))
		}
		out.DeadlineMet = deadline <= 0 || done <= deadline
		e.recordResilient(out, true)
		finishResilientSpan(span, out, done, nil)
		return done, out, nil
	}
	if done, ok := e.onboardRung(dag, t, deadline, &out); ok {
		out.Dest = OnboardName
		if est.Dest != OnboardName {
			out.FellBackTo = OnboardName
			out.Fallbacks++
			e.scope.Events.Emit(t, evOnboard,
				trace.String("dag", dag.Name), trace.String("from", est.Dest),
				trace.Bool("degraded", out.Degraded))
		}
		out.DeadlineMet = deadline <= 0 || done <= deadline
		e.recordResilient(out, true)
		finishResilientSpan(span, out, done, nil)
		return done, out, nil
	}
	err := fmt.Errorf("offload: resilient execution exhausted for %s after %d attempts",
		dag.Name, out.Attempts)
	e.scope.Events.Emit(t, evExhausted,
		trace.String("dag", dag.Name), trace.Int("attempts", out.Attempts))
	e.recordResilient(out, false)
	finishResilientSpan(span, out, t, err)
	return 0, out, err
}

// finishResilientSpan closes ExecuteResilient's span with the outcome.
func finishResilientSpan(span *trace.Span, out Outcome, end time.Duration, err error) {
	span.SetAttr(trace.Int("attempts", out.Attempts),
		trace.Int("fallbacks", out.Fallbacks),
		trace.Int("breaker_skips", out.BreakerSkips),
		trace.Bool("degraded", out.Degraded),
		trace.String("dest", out.Dest))
	if err != nil {
		span.SetAttr(trace.String("error", err.Error()))
	}
	span.FinishAt(end)
}

// remoteLadder walks the remote rungs of the degradation ladder — the
// chosen site, then next-best feasible re-estimates, each under the
// bounded retry loop — advancing *t by backoff waits. It mutates shared
// sites (Submit, budget charges) and therefore belongs to the commit
// phase. A decision that chose on-board execution skips it entirely.
func (e *Engine) remoteLadder(dag *tasks.DAG, est Estimate, t *time.Duration, deadline time.Duration, out *Outcome, pol Policy) (time.Duration, string, bool) {
	// tried marks the sites already walked, indexed like e.sites; it is the
	// engine's scratch, cleared per ladder.
	if cap(e.tried) < len(e.sites) {
		e.tried = make([]bool, len(e.sites))
	}
	tried := e.tried[:len(e.sites)]
	clear(tried)
	cand := est
	for hop := 0; hop <= len(e.sites) && cand.Dest != OnboardName; hop++ {
		si, ok := e.siteAt[cand.Dest]
		if ok {
			tried[si] = true
			if done, ok := e.tryRemote(dag, e.sites[si], cand, t, deadline, out, pol); ok {
				return done, cand.Dest, true
			}
		}
		next, found := e.nextRemote(dag, *t, tried)
		if !found {
			break
		}
		out.Fallbacks++
		cand = next
	}
	return 0, "", false
}

// onboardRung is the final, vehicle-local rung of the ladder: on-board
// DSF execution, on a compressed model variant when the deadline demands
// it. It never touches shared sites — the property that lets an
// epoch-barrier fleet complete on-board-chosen invocations inside the
// parallel decision phase.
func (e *Engine) onboardRung(dag *tasks.DAG, t, deadline time.Duration, out *Outcome) (time.Duration, bool) {
	runDag := dag
	ob := e.EstimateOnboard(dag, t)
	if ob.Feasible && deadline > 0 && t+ob.Total > deadline {
		dd := DegradedDAG(dag, degradeFactor)
		if alt := e.EstimateOnboard(dd, t); alt.Feasible {
			runDag, ob = dd, alt
			out.Degraded = true
			e.m.degraded.Inc()
			e.scope.Events.Emit(t, evDegraded,
				trace.String("dag", dag.Name), trace.F64("factor", degradeFactor))
		}
	}
	if !ob.Feasible {
		return 0, false
	}
	out.Attempts++
	done, err := e.Execute(runDag, ob, t)
	if err != nil {
		return 0, false
	}
	return done, true
}

// tryRemote runs the bounded retry loop for one remote candidate at site,
// advancing *t by each backoff. It reports success with the completion
// time; on false the candidate is exhausted (failures, breaker, deadline,
// or lost feasibility).
func (e *Engine) tryRemote(dag *tasks.DAG, site *xedge.Site, cand Estimate, t *time.Duration, deadline time.Duration, out *Outcome, pol Policy) (time.Duration, bool) {
	br := e.breakerFor(cand.Dest)
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if !br.Allow(*t) {
			out.BreakerSkips++
			e.m.breakerSkips.Inc()
			e.m.breakerSkipByDest.Get(cand.Dest).Inc()
			return 0, false
		}
		out.Attempts++
		opensBefore := br.Opens()
		done, err := e.Execute(dag, cand, *t)
		if err == nil {
			br.RecordSuccess(*t)
			return done, true
		}
		br.RecordFailure(*t)
		if br.Opens() > opensBefore {
			e.m.breakerOpened.Inc()
			e.m.breakerOpenByDest.Get(cand.Dest).Inc()
		}
		if attempt == pol.MaxAttempts {
			return 0, false
		}
		wait := backoff(attempt)
		*t += wait
		out.Retries++
		e.m.retries.Inc()
		e.m.backoffMS.ObserveDuration(wait)
		if deadline > 0 && *t >= deadline {
			return 0, false
		}
		// Conditions moved during the backoff (coverage, queues, faults):
		// refresh the estimate; an infeasible refresh ends this rung.
		fresh := e.EstimateSite(dag, site, cand.SplitAfter, *t)
		if !fresh.Feasible {
			return 0, false
		}
		cand = fresh
	}
	return 0, false
}

// nextRemote picks the best feasible remote destination that tried does
// not mark, at t: a full offload's first strict minimum of Total, as a
// stable sort of every destination would rank it. The search is
// EstimatePipeline's (bestSite), traced or not: sites after the first that
// do not cover the vehicle are skipped unestimated, and on-board execution
// is not estimated at all (the ladder's on-board rung estimates it afresh).
func (e *Engine) nextRemote(dag *tasks.DAG, t time.Duration, tried []bool) (Estimate, bool) {
	call := e.newSplitCall(dag, dag.Compiled(), 0, t)
	if call.c.Err() != nil {
		return Estimate{}, false
	}
	if best := e.bestSite(&call, tried); best.Feasible {
		return best, true
	}
	return Estimate{}, false
}

// recordResilient emits the outcome-level resilience metrics.
func (e *Engine) recordResilient(out Outcome, ok bool) {
	if ok {
		e.m.resilientSuccess.Inc()
	} else {
		e.m.resilientExhausted.Inc()
	}
	if out.Fallbacks > 0 {
		e.m.fallbacks.Add(float64(out.Fallbacks))
	}
}
