// Package offload implements OpenVDAP's dynamic offloading and scheduling
// strategy: for each application (task DAG) it enumerates the feasible
// destinations — on-board VCU, neighboring vehicles, XEdge servers, the
// remote cloud — estimates end-to-end latency and vehicle-side energy for
// each (including mobility-degraded network transfer), and picks the
// destination that finishes the service "at the right time with limited
// bandwidth consumption" (paper §I, §IV).
package offload

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

// RadioPowerW is the vehicle radio's transmit power draw, charged against
// transfer time when estimating vehicle-side energy of offloading.
const RadioPowerW = 2.5

// DefaultLossBitrateMbps is the stream bitrate fed to the Figure-2 loss
// model when adjusting cellular links for mobility: the paper's 3.8 Mbps
// reference stream.
const DefaultLossBitrateMbps = 3.8

// OnboardName is the destination name for local execution.
const OnboardName = "onboard"

// Estimate is the predicted cost of running a DAG at one destination.
type Estimate struct {
	Dest string `json:"dest"`
	Kind string `json:"kind"`
	// SplitAfter is the number of leading topo-order tasks run on-board
	// before shipping intermediate data (0 = full offload; len(tasks) =
	// fully on-board).
	SplitAfter int `json:"splitAfter"`
	// Uplink, Compute, Downlink, Total are the latency components.
	Uplink   time.Duration `json:"uplink"`
	Compute  time.Duration `json:"compute"`
	Downlink time.Duration `json:"downlink"`
	Total    time.Duration `json:"total"`
	// VehicleEnergyJ is energy spent on the vehicle (local compute plus
	// radio transmit time).
	VehicleEnergyJ float64 `json:"vehicleEnergyJ"`
	// BytesSent is uplink payload (the bandwidth-consumption metric).
	BytesSent float64 `json:"bytesSent"`
	// Feasible is false when the destination cannot run the DAG now.
	Feasible bool `json:"feasible"`
	// Reason explains infeasibility.
	Reason string `json:"reason,omitempty"`
}

// Local reports whether committing this estimate touches only
// vehicle-local state: on-board DSF execution, no Site.Submit, no
// bandwidth-budget charge. Local estimates may execute inside the
// parallel decision phase of an epoch-barrier fleet round; remote ones
// must wait for the single-threaded commit phase (see
// fleet.ShardedInvokeAll and the phase contract on ExecuteResilient).
func (est Estimate) Local() bool { return est.Dest == OnboardName }

// Engine evaluates destinations for one vehicle.
//
// Concurrency: an Engine (with its DSF, sites, tracer, and registry) is
// owned by a single goroutine. Replication harnesses that run many
// engines concurrently must give each worker its own engine and world
// (see internal/runner) and merge telemetry afterwards.
//
// Phase contract (epoch-barrier fleet execution): engines of different
// vehicles that share xedge sites may run their *decision step* —
// Decide/Estimates/EstimateOnboard/EstimateSite — concurrently, because
// estimation only reads frozen site state. The *commit step* — Execute
// toward a remote destination, or the remote ladder of ExecuteResilient —
// mutates shared sites (Site.Submit, queueing state) and charges the
// engine's bandwidth budget, so it must run in the single-threaded commit
// phase in canonical vehicle order. Estimates with Local() == true commit
// entirely on vehicle-local state and are exempt; fleet.ShardedInvokeAll
// is built on exactly this split.
type Engine struct {
	dsf   *vcu.DSF
	sites []*xedge.Site
	mob   geo.Mobility

	// Bandwidth budget (the paper's "limited bandwidth consumption"):
	// when budgetBytes > 0, offloads whose uplink payload exceeds the
	// remaining budget are infeasible, forcing on-board execution.
	budgetBytes float64
	spentBytes  float64

	scope obs.Scope
	meter *network.Meter
	m     engineMetrics

	// pathAdjust, when set, layers externally-injected link conditions
	// (fault windows, chaos schedules) onto every access path after the
	// mobility adjustment. See SetPathAdjuster.
	pathAdjust PathAdjuster

	// pathCache memoizes the mobility-adjusted base path per site. The
	// base depends only on (site access path, vehicle speed): site access
	// paths are immutable, and SetMobility / SetPathAdjuster drop the
	// cache. The time-varying fault adjuster is layered on top per call,
	// never cached, so injected fault windows always see live conditions.
	pathCache map[string]network.Path

	// policy, when non-nil, enables the resilient execution path:
	// per-site circuit breakers, retry with backoff, and fallback. See
	// SetResilience and ExecuteResilient in resilience.go.
	policy   *Policy
	breakers map[string]*Breaker

	// finish is per-task scratch of EstimateSite and execute, indexed like
	// DAG.Tasks and reused across calls (see finishScratch).
	finish []time.Duration
}

// PathAdjuster rewrites the access path toward a destination as of
// virtual time now (e.g. a fault injector degrading a link during a
// scheduled window). Implementations must not mutate the input path.
type PathAdjuster func(dest string, p network.Path, now time.Duration) network.Path

// SetPathAdjuster installs adj as the engine's link-condition hook (nil
// removes it). The adjuster runs on both the estimation and execution
// paths, after the mobility loss adjustment. Cached base paths are
// dropped so the new conditions take effect immediately.
func (e *Engine) SetPathAdjuster(adj PathAdjuster) {
	e.pathAdjust = adj
	e.pathCache = nil
}

// engineMetrics holds the engine's interned metric handles, resolved once
// in Instrument. Handles are nil-safe, so an uninstrumented engine emits
// through them for free. Per-kind and per-destination counters are
// interned lazily on first use.
type engineMetrics struct {
	decisions          *telemetry.Counter
	candidates         *telemetry.HistogramHandle
	decisionNone       *telemetry.Counter
	failures           *telemetry.Counter
	executions         *telemetry.Counter
	totalMS            *telemetry.HistogramHandle
	bytesSent          *telemetry.Counter
	uplinkMS           *telemetry.HistogramHandle
	downlinkMS         *telemetry.HistogramHandle
	retries            *telemetry.Counter
	backoffMS          *telemetry.HistogramHandle
	breakerSkips       *telemetry.Counter
	breakerOpened      *telemetry.Counter
	resilientSuccess   *telemetry.Counter
	resilientExhausted *telemetry.Counter
	fallbacks          *telemetry.Counter
	degraded           *telemetry.Counter

	xedgeLane siteLane
	cloudLane siteLane

	dynamic map[string]*telemetry.Counter // full-name → handle, interned lazily
}

// siteLane is the per-trace-component (xedge / cloud) execution metric set.
type siteLane struct {
	submits     *telemetry.Counter
	execMS      *telemetry.HistogramHandle
	queueWaitMS *telemetry.HistogramHandle
}

// Instrument attaches the engine's observability scope. Estimation,
// decisions, and executions then emit `offload`, `network`, `xedge`, and
// `cloud` spans plus matching metrics, and circuit-breaker transitions and
// resilience-ladder rungs emit flight-recorder events stamped at the
// virtual time they happen. The fixed-name metrics resolve to interned
// handles here, once, so the execute loop never takes the registry lock.
func (e *Engine) Instrument(sc obs.Scope) {
	e.scope = sc
	e.meter = network.NewMeter(sc)
	reg := sc.Metrics
	lane := func(comp string) siteLane {
		return siteLane{
			submits:     reg.CounterHandle(comp + ".submits"),
			execMS:      reg.HistogramHandle(comp + ".exec_ms"),
			queueWaitMS: reg.HistogramHandle(comp + ".queue_wait_ms"),
		}
	}
	e.m = engineMetrics{
		decisions:          reg.CounterHandle("offload.decisions"),
		candidates:         reg.HistogramHandle("offload.candidates"),
		decisionNone:       reg.CounterHandle("offload.decision.none"),
		failures:           reg.CounterHandle("offload.failures"),
		executions:         reg.CounterHandle("offload.executions"),
		totalMS:            reg.HistogramHandle("offload.total_ms"),
		bytesSent:          reg.CounterHandle("offload.bytes_sent"),
		uplinkMS:           reg.HistogramHandle("offload.uplink_ms"),
		downlinkMS:         reg.HistogramHandle("offload.downlink_ms"),
		retries:            reg.CounterHandle("offload.retries"),
		backoffMS:          reg.HistogramHandle("offload.backoff_ms"),
		breakerSkips:       reg.CounterHandle("offload.breaker.skips"),
		breakerOpened:      reg.CounterHandle("offload.breaker.opened"),
		resilientSuccess:   reg.CounterHandle("offload.resilient.success"),
		resilientExhausted: reg.CounterHandle("offload.resilient.exhausted"),
		fallbacks:          reg.CounterHandle("offload.fallbacks"),
		degraded:           reg.CounterHandle("offload.degraded"),
		xedgeLane:          lane("xedge"),
		cloudLane:          lane("cloud"),
		dynamic:            make(map[string]*telemetry.Counter),
	}
}

// dynCounter interns a dynamically-named counter (prefix + key) on first
// use; subsequent bumps reuse the handle without rebuilding the name.
func (e *Engine) dynCounter(prefix, key string) *telemetry.Counter {
	if e.scope.Metrics == nil {
		return nil
	}
	name := prefix + key
	c, ok := e.m.dynamic[name]
	if !ok {
		c = e.scope.Metrics.CounterHandle(name)
		e.m.dynamic[name] = c
	}
	return c
}

// lane returns the interned metric set for a site kind's trace component.
func (e *Engine) lane(kind xedge.SiteKind) *siteLane {
	if kind == xedge.CloudSite {
		return &e.m.cloudLane
	}
	return &e.m.xedgeLane
}

// siteComponent maps a destination kind to its trace component lane:
// `cloud` for the remote tier, `xedge` for every edge-side site.
func siteComponent(kind xedge.SiteKind) string {
	if kind == xedge.CloudSite {
		return "cloud"
	}
	return "xedge"
}

// SetBandwidthBudget caps total uplink bytes Execute may spend. Zero or
// negative removes the cap. Spending resets.
func (e *Engine) SetBandwidthBudget(bytes float64) {
	if bytes <= 0 {
		e.budgetBytes, e.spentBytes = 0, 0
		return
	}
	e.budgetBytes = bytes
	e.spentBytes = 0
}

// BandwidthRemaining returns the unspent budget (Inf semantics: second
// return is false when no budget is set).
func (e *Engine) BandwidthRemaining() (float64, bool) {
	if e.budgetBytes <= 0 {
		return 0, false
	}
	remaining := e.budgetBytes - e.spentBytes
	if remaining < 0 {
		remaining = 0
	}
	return remaining, true
}

// BytesSpent returns uplink bytes consumed by executed offloads.
func (e *Engine) BytesSpent() float64 { return e.spentBytes }

// withinBudget reports whether an estimate's uplink fits the budget.
func (e *Engine) withinBudget(bytes float64) bool {
	if e.budgetBytes <= 0 {
		return true
	}
	return e.spentBytes+bytes <= e.budgetBytes
}

// NewEngine builds an engine over the vehicle's DSF, its mobility, and the
// candidate remote sites.
func NewEngine(dsf *vcu.DSF, mob geo.Mobility, sites []*xedge.Site) (*Engine, error) {
	if dsf == nil {
		return nil, fmt.Errorf("offload: nil DSF")
	}
	return &Engine{dsf: dsf, sites: sites, mob: mob}, nil
}

// Sites returns the registered destinations.
func (e *Engine) Sites() []*xedge.Site {
	out := make([]*xedge.Site, len(e.sites))
	copy(out, e.sites)
	return out
}

// SetMobility updates the vehicle's mobility (speed changes degrade
// cellular transfer estimates). Cached base paths are dropped: the loss
// model re-evaluates at the new speed.
func (e *Engine) SetMobility(mob geo.Mobility) {
	e.mob = mob
	e.pathCache = nil
}

// mobilityAdjustedPath raises cellular-link loss to the Figure-2 model's
// expectation at the vehicle's current speed, shrinking effective goodput.
func (e *Engine) mobilityAdjustedPath(p network.Path) network.Path {
	adj := network.Path{Name: p.Name, Links: make([]network.LinkSpec, len(p.Links))}
	copy(adj.Links, p.Links)
	for i, l := range adj.Links {
		if l.Tech == network.LTE || l.Tech == network.FiveG {
			loss := network.ExpectedPacketLoss(e.mob.SpeedMS, DefaultLossBitrateMbps)
			if loss > l.BaseLoss {
				l.BaseLoss = loss
				if l.BaseLoss > 0.95 {
					l.BaseLoss = 0.95
				}
				adj.Links[i] = l
			}
		}
	}
	return adj
}

// adjustedPath is the access path toward site as the vehicle experiences
// it at virtual time now: mobility-degraded cellular loss plus any
// externally-injected link conditions. The mobility-adjusted base is
// memoized per site (see pathCache); only the fault adjuster runs per
// call. Callers treat the returned path as read-only, as PathAdjuster
// implementations already must.
func (e *Engine) adjustedPath(site *xedge.Site, now time.Duration) network.Path {
	name := site.Name()
	p, ok := e.pathCache[name]
	if !ok {
		p = e.mobilityAdjustedPath(site.Access())
		if e.pathCache == nil {
			e.pathCache = make(map[string]network.Path)
		}
		e.pathCache[name] = p
	}
	if e.pathAdjust != nil {
		p = e.pathAdjust(name, p, now)
	}
	return p
}

// EstimateOnboard predicts full local execution via the DSF plan.
func (e *Engine) EstimateOnboard(dag *tasks.DAG, now time.Duration) Estimate {
	var span *trace.Span
	if e.scope.Tracer.Enabled() {
		span = e.scope.Tracer.StartSpanAt("offload", "offload.estimate", now,
			trace.String("dag", dag.Name), trace.String("dest", OnboardName))
	}
	plan, err := e.dsf.Plan(dag, now)
	if err != nil {
		if span != nil {
			span.SetAttr(trace.Bool("feasible", false), trace.String("reason", err.Error()))
		}
		span.FinishAt(now)
		return Estimate{Dest: OnboardName, Kind: OnboardName, SplitAfter: len(dag.Tasks),
			Feasible: false, Reason: err.Error()}
	}
	if span != nil {
		span.SetAttr(trace.Bool("feasible", true), trace.Dur("total", plan.Makespan))
		span.FinishAt(now + plan.Makespan)
	}
	return Estimate{
		Dest: OnboardName, Kind: OnboardName, SplitAfter: len(dag.Tasks),
		Compute:        plan.Makespan,
		Total:          plan.Makespan,
		VehicleEnergyJ: plan.EnergyJ,
		Feasible:       true,
	}
}

// EstimateSite predicts running the trailing portion of the DAG at a site,
// with the first splitAfter topo-order tasks executed on-board first.
// splitAfter 0 offloads everything.
func (e *Engine) EstimateSite(dag *tasks.DAG, site *xedge.Site, splitAfter int, now time.Duration) Estimate {
	return e.estimateSite(dag, dag.Compiled(), site, splitAfter, now)
}

// estimateSite is EstimateSite given the DAG's compiled form, so a caller
// estimating many sites checks the DAG's content once.
func (e *Engine) estimateSite(dag *tasks.DAG, c *tasks.Compiled, site *xedge.Site, splitAfter int, now time.Duration) Estimate {
	est := Estimate{Dest: site.Name(), Kind: site.Kind().String(), SplitAfter: splitAfter}
	var span *trace.Span
	if e.scope.Tracer.Enabled() {
		span = e.scope.Tracer.StartSpanAt("offload", "offload.estimate", now,
			trace.String("dag", dag.Name), trace.String("dest", site.Name()),
			trace.String("kind", est.Kind), trace.Int("split", splitAfter))
		defer func() {
			span.SetAttr(trace.Bool("feasible", est.Feasible))
			if est.Reason != "" {
				span.SetAttr(trace.String("reason", est.Reason))
			}
			span.FinishAt(now + est.Total)
		}()
	}
	order, err := c.Order()
	if err != nil {
		est.Reason = err.Error()
		return est
	}
	if splitAfter < 0 || splitAfter >= len(order) {
		est.Reason = fmt.Sprintf("split %d outside [0, %d)", splitAfter, len(order))
		return est
	}
	if !site.Reachable(e.mob.PositionAt(now)) {
		est.Reason = "out of coverage"
		return est
	}

	remote := order[splitAfter:]
	cursor := now

	// Local prefix runs through the DSF.
	if splitAfter > 0 {
		plan, err := e.dsf.Plan(c.Prefix(splitAfter), now)
		if err != nil {
			est.Reason = err.Error()
			return est
		}
		cursor = now + plan.Makespan
		est.VehicleEnergyJ += plan.EnergyJ
		est.Compute += plan.Makespan
	}

	// Uplink: ship the remote portion's external input — root inputs of
	// remote tasks plus intermediate outputs crossing the cut.
	upBytes := crossingBytes(dag, c, splitAfter)
	path := e.adjustedPath(site, now)
	up, err := path.TransferTime(upBytes, network.Uplink)
	if err != nil {
		est.Reason = err.Error()
		return est
	}
	est.Uplink = up
	est.BytesSent = upBytes
	est.VehicleEnergyJ += RadioPowerW * up.Seconds()
	if e.scope.Tracer.Enabled() {
		e.scope.Tracer.SpanAt("network", "network.uplink", cursor, cursor+up,
			trace.String("path", path.Name), trace.F64("bytes", upBytes),
			trace.F64("loss", network.WorstLoss(path)))
	}
	cursor += up

	// Remote compute: topo-order submission estimate on site executors.
	computeStart := cursor
	finish := e.finishScratch(len(order))
	var remoteDone time.Duration
	for _, i := range remote {
		t := dag.Tasks[i]
		ready := cursor
		for _, dep := range c.Deps(i) {
			if c.Pos(dep) >= splitAfter && finish[dep] > ready {
				ready = finish[dep]
			}
		}
		finish[i], err = site.EstimateExec(ready, t.Class, t.GFLOP)
		if err != nil {
			est.Reason = err.Error()
			return est
		}
		if finish[i] > remoteDone {
			remoteDone = finish[i]
		}
	}
	est.Compute += remoteDone - computeStart
	if e.scope.Tracer.Enabled() {
		comp := siteComponent(site.Kind())
		e.scope.Tracer.SpanAt(comp, comp+".exec", computeStart, remoteDone,
			trace.String("site", site.Name()), trace.Int("tasks", len(remote)))
	}

	// Downlink: results of sink tasks return to the vehicle.
	var downBytes float64
	for _, i := range remote {
		if len(c.Succs(i)) == 0 {
			downBytes += dag.Tasks[i].OutputBytes
		}
	}
	down, err := path.TransferTime(downBytes, network.Downlink)
	if err != nil {
		est.Reason = err.Error()
		return est
	}
	est.Downlink = down
	est.Total = (remoteDone - now) + down
	if e.scope.Tracer.Enabled() {
		e.scope.Tracer.SpanAt("network", "network.downlink", remoteDone, remoteDone+down,
			trace.String("path", path.Name), trace.F64("bytes", downBytes))
	}
	if !e.withinBudget(est.BytesSent) {
		remaining, _ := e.BandwidthRemaining()
		est.Reason = fmt.Sprintf("bandwidth budget exhausted (%.0f B needed, %.0f B left)",
			est.BytesSent, remaining)
		return est
	}
	est.Feasible = true
	return est
}

// EstimateBestSite evaluates the split at every registered site and returns
// the feasible estimate with the smallest total latency (the earliest
// registered site wins ties). When no site is feasible it returns the first
// site's infeasible estimate, or Reason "no sites" without any site.
func (e *Engine) EstimateBestSite(dag *tasks.DAG, splitAfter int, now time.Duration) Estimate {
	best := Estimate{Feasible: false, Reason: "no sites"}
	c := dag.Compiled()
	for _, site := range e.sites {
		cand := e.estimateSite(dag, c, site, splitAfter, now)
		if !cand.Feasible {
			if !best.Feasible && best.Reason == "no sites" {
				best = cand
			}
			continue
		}
		if !best.Feasible || cand.Total < best.Total {
			best = cand
		}
	}
	return best
}

// crossingBytes sums the data that must move from vehicle to site when the
// first splitAfter topo-order tasks stay on-board: inputs of remote root
// tasks that come from outside the DAG, plus outputs of local tasks
// consumed by remote tasks.
func crossingBytes(dag *tasks.DAG, c *tasks.Compiled, splitAfter int) float64 {
	order, _ := c.Order()
	var total float64
	for _, i := range order[splitAfter:] {
		deps := c.Deps(i)
		if len(deps) == 0 {
			total += dag.Tasks[i].InputBytes
			continue
		}
		for _, dep := range deps {
			if c.Pos(dep) < splitAfter {
				total += dag.Tasks[dep].OutputBytes
			}
		}
	}
	return total
}

// finishScratch returns the engine's per-task finish-time scratch sized for
// n tasks. Entries are written before they are read (dependencies precede
// dependents in topo order), so it is not cleared between calls.
func (e *Engine) finishScratch(n int) []time.Duration {
	if cap(e.finish) < n {
		e.finish = make([]time.Duration, n)
	}
	return e.finish[:n]
}

// Estimates evaluates on-board execution plus a full offload to every
// registered site, sorted by total latency (infeasible entries last).
func (e *Engine) Estimates(dag *tasks.DAG, now time.Duration) ([]Estimate, error) {
	if dag == nil {
		return nil, fmt.Errorf("offload: nil DAG")
	}
	if err := dag.Validate(); err != nil {
		return nil, err
	}
	out := []Estimate{e.EstimateOnboard(dag, now)}
	for _, s := range e.sites {
		out = append(out, e.EstimateSite(dag, s, 0, now))
	}
	sortEstimates(out)
	return out, nil
}

// Decide returns the best feasible estimate and the full comparison.
func (e *Engine) Decide(dag *tasks.DAG, now time.Duration) (Estimate, []Estimate, error) {
	span := e.scope.Tracer.StartSpanAt("offload", "offload.decide", now)
	if dag != nil {
		span.SetAttr(trace.String("dag", dag.Name))
	}
	defer span.FinishAt(now)
	all, err := e.Estimates(dag, now)
	if err != nil {
		span.SetAttr(trace.String("error", err.Error()))
		return Estimate{}, nil, err
	}
	span.SetAttr(trace.Int("candidates", len(all)))
	e.m.decisions.Inc()
	e.m.candidates.Observe(float64(len(all)))
	for _, est := range all {
		if est.Feasible {
			span.SetAttr(trace.String("chosen", est.Dest), trace.Dur("predicted", est.Total))
			e.dynCounter("offload.decision.", est.Kind).Inc()
			return est, all, nil
		}
	}
	span.SetAttr(trace.String("chosen", "none"))
	e.m.decisionNone.Inc()
	return Estimate{}, all, fmt.Errorf("offload: no feasible destination for %s", dag.Name)
}

// Execute commits the chosen estimate: on-board plans run through the DSF;
// remote destinations reserve site executors. It returns the realized
// completion time.
func (e *Engine) Execute(dag *tasks.DAG, est Estimate, now time.Duration) (time.Duration, error) {
	span := e.scope.Tracer.StartSpanAt("offload", "offload.execute", now,
		trace.String("dest", est.Dest), trace.String("kind", est.Kind))
	if dag != nil {
		span.SetAttr(trace.String("dag", dag.Name))
	}
	done, err := e.execute(dag, est, now)
	if err != nil {
		span.SetAttr(trace.String("error", err.Error()))
		span.FinishAt(now)
		// The failure mirror of offload.executions / offload.execution.<kind>:
		// per-destination failure counters feed the resilience policy's
		// evaluation and the chaos experiments.
		e.m.failures.Inc()
		if est.Dest != "" {
			e.dynCounter("offload.failure.", est.Dest).Inc()
		}
		return done, err
	}
	span.FinishAt(done)
	e.m.executions.Inc()
	e.dynCounter("offload.execution.", est.Kind).Inc()
	e.m.totalMS.ObserveDuration(done - now)
	if est.Dest != OnboardName {
		e.m.bytesSent.Add(est.BytesSent)
		e.m.uplinkMS.ObserveDuration(est.Uplink)
		e.m.downlinkMS.ObserveDuration(est.Downlink)
	}
	return done, nil
}

// execute is the uninstrumented body of Execute.
func (e *Engine) execute(dag *tasks.DAG, est Estimate, now time.Duration) (time.Duration, error) {
	if !est.Feasible {
		return 0, fmt.Errorf("offload: cannot execute infeasible estimate for %s", est.Dest)
	}
	if est.Dest == OnboardName {
		plan, err := e.dsf.Run(dag, now)
		if err != nil {
			return 0, err
		}
		return now + plan.Makespan, nil
	}
	if !e.withinBudget(est.BytesSent) {
		return 0, fmt.Errorf("offload: bandwidth budget exhausted for %s", est.Dest)
	}
	var site *xedge.Site
	for _, s := range e.sites {
		if s.Name() == est.Dest {
			site = s
			break
		}
	}
	if site == nil {
		return 0, fmt.Errorf("offload: unknown destination %q", est.Dest)
	}
	c := dag.Compiled()
	order, err := c.Order()
	if err != nil {
		return 0, err
	}
	if est.SplitAfter > 0 {
		plan, err := e.dsf.Run(c.Prefix(est.SplitAfter), now)
		if err != nil {
			return 0, err
		}
		now += plan.Makespan
	}
	path := e.adjustedPath(site, now)
	if e.scope.Tracer.Enabled() {
		e.scope.Tracer.SpanAt("network", "network.uplink", now, now+est.Uplink,
			trace.String("path", path.Name), trace.F64("bytes", est.BytesSent),
			trace.F64("loss", network.WorstLoss(path)))
	}
	e.meter.RecordTransfer(path, est.BytesSent, network.Uplink, est.Uplink)
	now += est.Uplink
	comp := siteComponent(site.Kind())
	ln := e.lane(site.Kind())
	finish := e.finishScratch(len(order))
	var last time.Duration = now
	var downBytes float64
	for _, i := range order[est.SplitAfter:] {
		t := dag.Tasks[i]
		ready := now
		for _, dep := range c.Deps(i) {
			if c.Pos(dep) >= est.SplitAfter && finish[dep] > ready {
				ready = finish[dep]
			}
		}
		start, done, err := site.Submit(ready, t.Class, t.GFLOP)
		if err != nil {
			return 0, err
		}
		finish[i] = done
		if done > last {
			last = done
		}
		if len(c.Succs(i)) == 0 {
			downBytes += t.OutputBytes
		}
		if e.scope.Tracer.Enabled() {
			e.scope.Tracer.SpanAt(comp, comp+".task", start, done,
				trace.String("task", t.ID), trace.String("site", site.Name()),
				trace.Dur("queue_wait", start-ready))
		}
		ln.submits.Inc()
		ln.execMS.ObserveDuration(done - start)
		ln.queueWaitMS.ObserveDuration(start - ready)
	}
	if e.scope.Tracer.Enabled() {
		e.scope.Tracer.SpanAt("network", "network.downlink", last, last+est.Downlink,
			trace.String("path", path.Name), trace.F64("bytes", downBytes))
	}
	e.meter.RecordTransfer(path, downBytes, network.Downlink, est.Downlink)
	// Charge the budget only once the execution has fully succeeded: a
	// failed prefix plan or site submission must not burn bandwidth.
	e.spentBytes += est.BytesSent
	return last + est.Downlink, nil
}

func sortEstimates(ests []Estimate) {
	sort.SliceStable(ests, func(i, j int) bool {
		if ests[i].Feasible != ests[j].Feasible {
			return ests[i].Feasible
		}
		return ests[i].Total < ests[j].Total
	})
}
