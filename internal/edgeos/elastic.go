package edgeos

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/tasks"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Objective selects what Elastic Management optimizes.
type Objective int

const (
	// MinLatency picks the pipeline with the smallest end-to-end latency.
	MinLatency Objective = iota + 1
	// MinEnergy picks the least vehicle-energy pipeline that still meets
	// the deadline.
	MinEnergy
)

// String returns the objective name.
func (o Objective) String() string {
	switch o {
	case MinLatency:
		return "min-latency"
	case MinEnergy:
		return "min-energy"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Choice is one evaluated pipeline option.
type Choice struct {
	Pipeline Pipeline
	Estimate offload.Estimate
	// MeetsDeadline is true when the estimate fits the service deadline.
	MeetsDeadline bool
}

// InvocationResult records one service invocation.
type InvocationResult struct {
	Service   string
	Pipeline  string
	Dest      string
	Latency   time.Duration
	EnergyJ   float64
	HungUp    bool
	Completed time.Duration

	// Resilience outcome (zero values when no policy is installed on the
	// engine): total execution attempts, the destination actually used when
	// the chosen one failed, whether the compressed model variant ran, and
	// whether the service deadline was met.
	Attempts    int
	FellBackTo  string
	Degraded    bool
	DeadlineMet bool
}

// ElasticStats aggregates a service's invocation history.
type ElasticStats struct {
	Invocations  int
	HangUps      int
	TotalLatency time.Duration
	TotalEnergyJ float64
	// PipelineUse counts invocations per pipeline name.
	PipelineUse map[string]int
}

// ElasticManager is EdgeOSv's Elastic Management module: it evaluates each
// registered service's pipelines against current conditions and runs the
// best, hanging services up when nothing meets their deadline.
type ElasticManager struct {
	engine    *offload.Engine
	objective Objective
	services  map[string]*Service
	stats     map[string]*ElasticStats

	scope obs.Scope
	m     invocationMetrics

	// prep is the manager's single in-flight invocation and choices the
	// pipelines Choose evaluated, both reused across rounds so the
	// steady-state decision step allocates nothing (see PrepareInvoke and
	// TestPrepareInvokeAllocs in package fleet).
	prep    PreparedInvocation
	choices []Choice
}

// invocationMetrics holds emitInvocationMetrics' handles, resolved in
// Instrument. Every handle is nil-safe, so an uninstrumented manager emits
// through them for free.
type invocationMetrics struct {
	invocations, hangups, fallbacks, degraded, deadlineHits *telemetry.Counter
	invokeMS, energyJ                                       *telemetry.HistogramHandle

	// edgeos.service.<name>.invocations and edgeos.pipeline.<name>.
	service, pipeline telemetry.Family
}

// Instrument attaches the manager's observability scope: invocations then
// emit `edgeos` spans wrapping the offload engine's own spans, plus
// `edgeos.*` metrics.
func (m *ElasticManager) Instrument(sc obs.Scope) {
	m.scope = sc
	reg := sc.Metrics
	m.m = invocationMetrics{
		invocations:  reg.CounterHandle("edgeos.invocations"),
		hangups:      reg.CounterHandle("edgeos.hangups"),
		fallbacks:    reg.CounterHandle("edgeos.fallbacks"),
		degraded:     reg.CounterHandle("edgeos.degraded"),
		deadlineHits: reg.CounterHandle("edgeos.deadline_hits"),
		invokeMS:     reg.HistogramHandle("edgeos.invoke_ms"),
		energyJ:      reg.HistogramHandle("edgeos.energy_j"),
		service:      reg.Family("edgeos.service.", ".invocations"),
		pipeline:     reg.Family("edgeos.pipeline.", ""),
	}
}

// NewElasticManager builds the module over an offload engine.
func NewElasticManager(engine *offload.Engine, objective Objective) (*ElasticManager, error) {
	if engine == nil {
		return nil, fmt.Errorf("edgeos: nil offload engine")
	}
	if objective != MinLatency && objective != MinEnergy {
		return nil, fmt.Errorf("edgeos: unknown objective %d", objective)
	}
	return &ElasticManager{
		engine:    engine,
		objective: objective,
		services:  make(map[string]*Service),
		stats:     make(map[string]*ElasticStats),
	}, nil
}

// Register adds a service. Names must be unique.
func (m *ElasticManager) Register(s *Service) error {
	if s == nil {
		return fmt.Errorf("edgeos: nil service")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if _, dup := m.services[s.Name]; dup {
		return fmt.Errorf("edgeos: service %q already registered", s.Name)
	}
	s.state = Running
	s.pipelines = s.EffectivePipelines()
	m.services[s.Name] = s
	m.stats[s.Name] = &ElasticStats{PipelineUse: make(map[string]int)}
	return nil
}

// Service returns a registered service.
func (m *ElasticManager) Service(name string) (*Service, error) {
	s, ok := m.services[name]
	if !ok {
		return nil, fmt.Errorf("edgeos: unknown service %q", name)
	}
	return s, nil
}

// Services lists registered services sorted by descending priority, then
// name (the Differentiation ordering).
func (m *ElasticManager) Services() []*Service {
	out := make([]*Service, 0, len(m.services))
	for _, s := range m.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Stats returns a copy of a service's aggregate statistics.
func (m *ElasticManager) Stats(name string) (ElasticStats, error) {
	st, ok := m.stats[name]
	if !ok {
		return ElasticStats{}, fmt.Errorf("edgeos: unknown service %q", name)
	}
	cp := *st
	cp.PipelineUse = make(map[string]int, len(st.PipelineUse))
	for k, v := range st.PipelineUse {
		cp.PipelineUse[k] = v
	}
	return cp, nil
}

// evaluate scores one pipeline of a service, whose DAG's compiled form is
// dc, at virtual time now.
func (m *ElasticManager) evaluate(s *Service, dc *tasks.Compiled, p Pipeline, now time.Duration) Choice {
	est := m.engine.EstimatePipeline(s.DAG, dc, p.SplitAfter, now)
	c := Choice{Pipeline: p, Estimate: est}
	if est.Feasible {
		c.MeetsDeadline = s.Deadline == 0 || est.Total <= s.Deadline
	}
	return c
}

// Choose evaluates all pipelines of a service and returns them sorted best
// first under the current objective, considering only deadline-meeting,
// feasible options as candidates. The boolean reports whether any
// candidate exists. The returned slice is the manager's scratch, valid
// until this manager's next Choose or PrepareInvoke.
func (m *ElasticManager) Choose(name string, now time.Duration) (Choice, []Choice, bool, error) {
	span := m.scope.Tracer.StartSpanAt("edgeos", "edgeos.choose", now,
		trace.String("service", name))
	defer span.FinishAt(now)
	s, err := m.Service(name)
	if err != nil {
		span.SetAttr(trace.String("error", err.Error()))
		return Choice{}, nil, false, err
	}
	if s.state == Stopped {
		return Choice{}, nil, false, fmt.Errorf("edgeos: service %s is %v", name, s.state)
	}
	m.choices = m.choices[:0]
	dc := s.DAG.Compiled() // once for every pipeline
	for _, p := range s.pipelines {
		m.choices = append(m.choices, m.evaluate(s, dc, p, now))
	}
	minEnergy := m.objective == MinEnergy
	slices.SortStableFunc(m.choices, func(ci, cj Choice) int {
		if ci.MeetsDeadline != cj.MeetsDeadline {
			return trueFirst(ci.MeetsDeadline)
		}
		if ci.Estimate.Feasible != cj.Estimate.Feasible {
			return trueFirst(ci.Estimate.Feasible)
		}
		if minEnergy && ci.MeetsDeadline && cj.MeetsDeadline {
			if ci.Estimate.VehicleEnergyJ != cj.Estimate.VehicleEnergyJ {
				return trueFirst(ci.Estimate.VehicleEnergyJ < cj.Estimate.VehicleEnergyJ)
			}
		}
		return cmp.Compare(ci.Estimate.Total, cj.Estimate.Total)
	})
	best := m.choices[0]
	span.SetAttr(trace.Int("pipelines", len(m.choices)))
	if !best.Estimate.Feasible || !best.MeetsDeadline {
		span.SetAttr(trace.Bool("viable", false))
		return best, m.choices, false, nil
	}
	span.SetAttr(trace.Bool("viable", true),
		trace.String("pipeline", best.Pipeline.Name),
		trace.String("dest", best.Estimate.Dest))
	return best, m.choices, true, nil
}

// trueFirst orders two choices that differ in one property: the one that
// has it (a is true) sorts first.
func trueFirst(a bool) int {
	if a {
		return -1
	}
	return 1
}

// PreparedInvocation is the product of the decision step of an
// invocation: the chosen pipeline and estimate, plus the open `edgeos`
// span that CommitInvoke later closes. Between PrepareInvoke and
// CommitInvoke nothing shared is reserved — shared sites were only read —
// so a fleet can prepare many vehicles' invocations concurrently and
// commit them in canonical order afterwards (the epoch-barrier model, see
// fleet.ShardedInvokeAll). A prepared invocation is single-use.
type PreparedInvocation struct {
	m    *ElasticManager
	name string
	svc  *Service
	best Choice
	now  time.Duration
	span *trace.Span

	// done marks invocations that finished during Prepare (hang-ups and
	// errors); CommitInvoke then just replays the stored outcome.
	done bool
	res  InvocationResult
	err  error
}

// Local reports whether committing this invocation touches only
// vehicle-local state (the on-board VCU). Hang-ups and errors are local
// by definition; chosen on-board pipelines stay local even under a
// resilience policy, whose degradation ladder only ever walks *toward*
// the vehicle. Local commits may therefore run inside the parallel
// decision phase; non-local ones mutate shared sites and belong to the
// single-threaded commit phase.
func (p *PreparedInvocation) Local() bool {
	return p.done || p.best.Estimate.Dest == offload.OnboardName
}

// HungUp reports whether the decision step hung the service up (no viable
// pipeline); the commit step will not execute anything.
func (p *PreparedInvocation) HungUp() bool { return p.done && p.err == nil && p.res.HungUp }

// Err returns the decision-step error, if any (unknown/stopped service).
func (p *PreparedInvocation) Err() error { return p.err }

// PrepareInvoke runs the decision step of one invocation: choose the best
// pipeline for current conditions, or hang the service up when nothing
// meets its deadline. Shared sites are only read (estimates); all
// mutation is confined to this manager's own state, so concurrent
// PrepareInvoke calls on *different* managers sharing sites are safe.
// Pair with CommitInvoke; Invoke is exactly the two run back to back.
//
// The returned value is the manager's reusable scratch — valid until this
// manager's next PrepareInvoke. A manager runs one invocation at a time
// (single-goroutine ownership), and the epoch-barrier fleet holds at most
// one prepared invocation per vehicle across the barrier, so the reuse is
// safe and keeps the split allocation-free.
func (m *ElasticManager) PrepareInvoke(name string, now time.Duration) *PreparedInvocation {
	p := &m.prep
	*p = PreparedInvocation{m: m, name: name, now: now}
	p.span = m.scope.Tracer.StartSpanAt("edgeos", "edgeos.invoke", now,
		trace.String("service", name))
	s, err := m.Service(name)
	if err != nil {
		p.failPrepare(err)
		return p
	}
	p.svc = s
	best, _, viable, err := m.Choose(name, now)
	if err != nil {
		p.failPrepare(err)
		return p
	}
	st := m.stats[name]
	if !viable {
		s.state = HungUp
		st.Invocations++
		st.HangUps++
		p.res = InvocationResult{Service: name, HungUp: true}
		p.done = true
		p.span.SetAttr(trace.Bool("hungup", true))
		p.span.FinishAt(now)
		m.emitInvocationMetrics(p.res)
		return p
	}
	if s.state == HungUp {
		s.state = Running // conditions recovered
	}
	p.best = best
	return p
}

// failPrepare records a decision-step error and closes the span the way
// Invoke always has.
func (p *PreparedInvocation) failPrepare(err error) {
	p.err = err
	p.done = true
	p.span.SetAttr(trace.String("error", err.Error()))
	p.span.FinishAt(p.now)
}

// CommitInvoke runs the commit step of a prepared invocation: execute the
// chosen pipeline (reserving device/site capacity), record stats, close
// the span, and emit metrics. Remote destinations mutate shared sites, so
// non-Local commits must run in the single-threaded commit phase, in
// canonical vehicle order.
func (m *ElasticManager) CommitInvoke(p *PreparedInvocation) (InvocationResult, error) {
	if p == nil || p.m != m {
		return InvocationResult{}, fmt.Errorf("edgeos: prepared invocation does not belong to this manager")
	}
	if p.done {
		return p.res, p.err
	}
	p.done = true
	s, name, now, best := p.svc, p.name, p.now, p.best
	var (
		done    time.Duration
		outcome offload.Outcome
		err     error
	)
	if m.engine.Resilience() != nil {
		var deadline time.Duration
		if s.Deadline > 0 {
			deadline = now + s.Deadline
		}
		done, outcome, err = m.engine.ExecuteResilient(s.DAG, best.Estimate, now, deadline)
	} else {
		done, err = m.engine.Execute(s.DAG, best.Estimate, now)
		outcome = offload.Outcome{Dest: best.Estimate.Dest, Attempts: 1}
	}
	if err != nil {
		p.err = fmt.Errorf("invoke %s: %w", name, err)
		p.span.SetAttr(trace.String("error", p.err.Error()))
		p.span.FinishAt(now)
		return InvocationResult{}, p.err
	}
	res := InvocationResult{
		Service:     name,
		Pipeline:    best.Pipeline.Name,
		Dest:        outcome.Dest,
		Latency:     done - now,
		EnergyJ:     best.Estimate.VehicleEnergyJ,
		Completed:   done,
		Attempts:    outcome.Attempts,
		FellBackTo:  outcome.FellBackTo,
		Degraded:    outcome.Degraded,
		DeadlineMet: s.Deadline == 0 || done-now <= s.Deadline,
	}
	st := m.stats[name]
	st.Invocations++
	st.TotalLatency += res.Latency
	st.TotalEnergyJ += res.EnergyJ
	st.PipelineUse[best.Pipeline.Name]++
	p.res = res
	p.span.SetAttr(trace.String("pipeline", res.Pipeline),
		trace.String("dest", res.Dest))
	p.span.FinishAt(res.Completed)
	m.emitInvocationMetrics(res)
	return res, nil
}

// emitInvocationMetrics records the per-invocation metric set (shared by
// the hang-up and completed paths; errors emit nothing, as ever).
func (m *ElasticManager) emitInvocationMetrics(res InvocationResult) {
	im := &m.m
	im.invocations.Inc()
	im.service.Get(res.Service).Inc()
	if res.HungUp {
		im.hangups.Inc()
		return
	}
	im.invokeMS.ObserveDuration(res.Latency)
	im.pipeline.Get(res.Pipeline).Inc()
	im.energyJ.Observe(res.EnergyJ)
	if res.FellBackTo != "" {
		im.fallbacks.Inc()
	}
	if res.Degraded {
		im.degraded.Inc()
	}
	if res.DeadlineMet {
		im.deadlineHits.Inc()
	}
}

// Invoke runs one service invocation end to end: choose a pipeline,
// execute it (committing device/site reservations), and record stats. A
// service with no viable pipeline is hung up and the invocation reports
// HungUp without executing; a later successful Choose resumes it. Invoke
// is exactly PrepareInvoke followed by CommitInvoke — the epoch-barrier
// fleet executor calls the two steps separately.
func (m *ElasticManager) Invoke(name string, now time.Duration) (InvocationResult, error) {
	return m.CommitInvoke(m.PrepareInvoke(name, now))
}
