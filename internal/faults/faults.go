// Package faults is the platform's deterministic virtual-time fault
// injection layer (the disruption side of OpenVDAP §III/§IV-C: RSUs
// vanish behind the vehicle, LTE links degrade at speed, edge servers
// saturate and fail). A seeded Plan compiles, per site, three families of
// timed fault windows before the simulation starts:
//
//   - outages: the site goes down (Site.SetAvailable driven from the sim
//     clock) and every submission inside the window fails;
//   - link degradation: loss spikes and bandwidth collapse layered onto
//     the site's access path (offload.Engine's PathAdjuster hook);
//   - transient execution faults: Site.Submit fails inside the window
//     while estimates stay clean — the failure is a surprise the
//     offloading layer must absorb.
//
// Because the whole schedule is a pure function of (config, RNG stream)
// and every query is keyed by virtual time, injection is byte-identical
// per seed and race-clean under the sharded replication runner: each
// replication compiles its own plan from its own sim.NewStream substream.
package faults

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xedge"
)

// PlanConfig parameterizes plan compilation. Each fault family is
// enabled by a positive mean-time-to-event; zero disables it. Event
// inter-arrival times and window lengths are exponential draws, so an
// intensity sweep scales the means.
type PlanConfig struct {
	// Horizon bounds the schedule; no window starts at or after it.
	Horizon time.Duration

	// MeanTimeToOutage is the expected up-time between site outages
	// (0 disables outages). MeanOutage is the expected outage length
	// (default 1.5s).
	MeanTimeToOutage time.Duration
	MeanOutage       time.Duration

	// MeanTimeToDegrade spaces link-degradation windows (0 disables).
	// MeanDegrade is the expected window length (default 2s). During a
	// window every link on the site's access path suffers degradeLossDelta
	// added packet loss (capped at 0.95 total) and keeps
	// degradeBandwidthFactor of its bandwidth.
	MeanTimeToDegrade time.Duration
	MeanDegrade       time.Duration

	// MeanTimeToExecFault spaces transient execution-fault windows
	// (0 disables). MeanExecFault is the expected window length
	// (default 600ms). Submissions inside a window fail; retrying past
	// the window succeeds — the transient/permanent distinction is the
	// window length relative to the caller's retry budget.
	MeanTimeToExecFault time.Duration
	MeanExecFault       time.Duration
}

// What a degradation window does to each link of a site's access path.
const (
	degradeLossDelta       = 0.35
	degradeBandwidthFactor = 0.25
)

func (c PlanConfig) withDefaults() PlanConfig {
	if c.MeanOutage <= 0 {
		c.MeanOutage = 1500 * time.Millisecond
	}
	if c.MeanDegrade <= 0 {
		c.MeanDegrade = 2 * time.Second
	}
	if c.MeanExecFault <= 0 {
		c.MeanExecFault = 600 * time.Millisecond
	}
	return c
}

// Window is one half-open fault interval [From, To) in virtual time.
type Window struct {
	From time.Duration `json:"from"`
	To   time.Duration `json:"to"`
}

// contains reports whether t falls inside the window.
func (w Window) contains(t time.Duration) bool { return t >= w.From && t < w.To }

// inWindows reports whether t falls inside any of the sorted windows.
func inWindows(ws []Window, t time.Duration) bool {
	return inWindowsFrom(ws, 0, t)
}

// inWindowsFrom is inWindows starting at index cur, for callers that know
// every earlier window already ended (the epoch-cursor fast path).
func inWindowsFrom(ws []Window, cur int, t time.Duration) bool {
	for _, w := range ws[cur:] {
		if w.From > t {
			return false
		}
		if w.contains(t) {
			return true
		}
	}
	return false
}

// advanceWindowCursor moves cur past every window that ended at or before
// now. Windows are sorted and disjoint, so the skipped prefix can never
// contain a query time >= now again.
func advanceWindowCursor(ws []Window, cur int, now time.Duration) int {
	for cur < len(ws) && ws[cur].To <= now {
		cur++
	}
	return cur
}

// sitePlan is one site's compiled fault schedule.
type sitePlan struct {
	site       *xedge.Site
	outages    []Window
	degrades   []Window
	execFaults []Window

	// Per-family window cursors: index of the first window whose To is
	// still ahead of the injector's epoch cursor. Only AdvanceTo moves
	// them — once per epoch, on the single-threaded epoch boundary — so
	// the hot per-query hooks (faultAt, AdjustPath) scan read-only from
	// the cursor. That keeps them race-clean during the parallel decision
	// phase of a sharded fleet round and makes the whole schedule walk
	// amortized O(windows) per run instead of O(windows) per query.
	outageCur, degradeCur, execCur int
}

// Plan is a compiled fault schedule over a set of sites.
type Plan struct {
	cfg    PlanConfig
	sites  []*sitePlan
	byName map[string]*sitePlan
}

// NewPlan compiles a deterministic fault schedule for the given sites
// from cfg and the caller's RNG stream (hand each replication its own
// sim.NewStream substream for sharded determinism). Sites are processed
// in slice order and each family draws from its own forked substream, so
// the schedule is a pure function of (cfg, rng state, site order).
func NewPlan(cfg PlanConfig, rng *sim.RNG, sites []*xedge.Site) (*Plan, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: horizon must be positive, got %v", cfg.Horizon)
	}
	if rng == nil {
		return nil, fmt.Errorf("faults: nil RNG")
	}
	cfg = cfg.withDefaults()
	p := &Plan{cfg: cfg, byName: make(map[string]*sitePlan, len(sites))}
	for _, s := range sites {
		if s == nil {
			continue
		}
		sp := &sitePlan{
			site:       s,
			outages:    drawWindows(rng.Fork(), cfg.Horizon, cfg.MeanTimeToOutage, cfg.MeanOutage),
			degrades:   drawWindows(rng.Fork(), cfg.Horizon, cfg.MeanTimeToDegrade, cfg.MeanDegrade),
			execFaults: drawWindows(rng.Fork(), cfg.Horizon, cfg.MeanTimeToExecFault, cfg.MeanExecFault),
		}
		p.sites = append(p.sites, sp)
		p.byName[s.Name()] = sp
	}
	return p, nil
}

// drawWindows alternates exponential up-time and fault-length draws until
// the horizon. meanGap <= 0 disables the family. Windows are clipped to
// the horizon and never start at t=0 (worlds boot healthy).
func drawWindows(rng *sim.RNG, horizon, meanGap, meanLen time.Duration) []Window {
	if meanGap <= 0 {
		return nil
	}
	var out []Window
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.Exponential(float64(meanGap)))
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		t += gap
		if t >= horizon {
			return out
		}
		length := time.Duration(rng.Exponential(float64(meanLen)))
		if length < time.Millisecond {
			length = time.Millisecond
		}
		end := t + length
		if end > horizon {
			end = horizon
		}
		out = append(out, Window{From: t, To: end})
		t = end
	}
}

// Config returns the compiled configuration (defaults resolved).
func (p *Plan) Config() PlanConfig { return p.cfg }

// Outages returns a site's outage windows (nil for unknown sites).
func (p *Plan) Outages(site string) []Window {
	return p.windows(site, func(sp *sitePlan) []Window { return sp.outages })
}

// Degrades returns a site's link-degradation windows.
func (p *Plan) Degrades(site string) []Window {
	return p.windows(site, func(sp *sitePlan) []Window { return sp.degrades })
}

// ExecFaults returns a site's transient execution-fault windows.
func (p *Plan) ExecFaults(site string) []Window {
	return p.windows(site, func(sp *sitePlan) []Window { return sp.execFaults })
}

func (p *Plan) windows(site string, pick func(*sitePlan) []Window) []Window {
	sp, ok := p.byName[site]
	if !ok {
		return nil
	}
	out := make([]Window, len(pick(sp)))
	copy(out, pick(sp))
	return out
}

// EventCount totals scheduled fault windows across all sites.
func (p *Plan) EventCount() int {
	n := 0
	for _, sp := range p.sites {
		n += len(sp.outages) + len(sp.degrades) + len(sp.execFaults)
	}
	return n
}

// Injector applies a compiled Plan to the live simulation: it drives
// Site.SetAvailable as virtual time advances, degrades access paths
// through offload's PathAdjuster hook, and fails submissions inside
// exec-fault or outage windows. All queries are pure functions of
// (plan, virtual time), so the injector adds no nondeterminism.
//
// Concurrency: an Injector belongs to its replication's goroutine, like
// the sites it drives.
type Injector struct {
	plan   *Plan
	cursor time.Duration

	scope obs.Scope
	m     injectorMetrics
}

// injectorMetrics holds the injector's interned metric handles, resolved
// once in Instrument. The per-site counters can all be resolved up front
// because the compiled plan fixes the site set, so the submission-time
// fault hook never rebuilds a metric name. Handles are nil-safe.
type injectorMetrics struct {
	siteDown      *telemetry.Counter
	siteUp        *telemetry.Counter
	degradedPaths *telemetry.Counter
	outageRejects *telemetry.Counter
	execFaults    *telemetry.Counter
	perSite       map[string]*siteFaultCounters
}

// siteFaultCounters is one site's fault counter set.
type siteFaultCounters struct {
	outage        *telemetry.Counter
	outageRejects *telemetry.Counter
	execFaults    *telemetry.Counter
}

// NewInjector wraps a compiled plan.
func NewInjector(plan *Plan) (*Injector, error) {
	if plan == nil {
		return nil, fmt.Errorf("faults: nil plan")
	}
	return &Injector{plan: plan}, nil
}

// Instrument attaches the injector's observability scope: fault activity
// then emits `faults` spans and `faults.*` counters, and every outage
// window entered or left emits a structured event stamped at the window
// edge.
func (in *Injector) Instrument(sc obs.Scope) {
	in.scope = sc
	reg := sc.Metrics
	in.m = injectorMetrics{
		siteDown:      reg.CounterHandle("faults.site_down"),
		siteUp:        reg.CounterHandle("faults.site_up"),
		degradedPaths: reg.CounterHandle("faults.degraded_paths"),
		outageRejects: reg.CounterHandle("faults.outage_rejects"),
		execFaults:    reg.CounterHandle("faults.exec_faults"),
		perSite:       make(map[string]*siteFaultCounters, len(in.plan.sites)),
	}
	for _, sp := range in.plan.sites {
		name := sp.site.Name()
		in.m.perSite[name] = &siteFaultCounters{
			outage:        reg.CounterHandle("faults.outage." + name),
			outageRejects: reg.CounterHandle("faults.outage_rejects." + name),
			execFaults:    reg.CounterHandle("faults.exec_faults." + name),
		}
	}
}

// siteCounters returns the interned per-site fault counter set (nil, and
// thus inert, for unknown sites or an uninstrumented injector).
func (in *Injector) siteCounters(site string) *siteFaultCounters {
	return in.m.perSite[site]
}

// Plan returns the compiled schedule.
func (in *Injector) Plan() *Plan { return in.plan }

// Attach installs the injector's submission-time fault hook on every
// planned site. Call once after construction; pair with either
// AdvanceTo (pull-based worlds: fleets invoked at explicit times) or
// Schedule (push-based worlds: a sim.Engine kernel), not both.
func (in *Injector) Attach() {
	for _, sp := range in.plan.sites {
		sp := sp
		if len(sp.outages) == 0 && len(sp.execFaults) == 0 {
			continue
		}
		name := sp.site.Name()
		sp.site.SetFaultInjector(func(now time.Duration) error {
			return in.faultAt(name, now)
		})
	}
}

// faultAt decides whether a submission to site fails at virtual time now.
// Queries at or past the epoch cursor scan from the per-family cursors; a
// query behind the cursor (pull-based worlds probing the past) falls back
// to the full scan.
func (in *Injector) faultAt(site string, now time.Duration) error {
	sp, ok := in.plan.byName[site]
	if !ok {
		return nil
	}
	outageCur, execCur := sp.outageCur, sp.execCur
	if now < in.cursor {
		outageCur, execCur = 0, 0
	}
	if inWindowsFrom(sp.outages, outageCur, now) {
		in.m.outageRejects.Inc()
		if sc := in.siteCounters(site); sc != nil {
			sc.outageRejects.Inc()
		}
		return fmt.Errorf("faults: site down at %v (scheduled outage)", now)
	}
	if inWindowsFrom(sp.execFaults, execCur, now) {
		in.m.execFaults.Inc()
		if sc := in.siteCounters(site); sc != nil {
			sc.execFaults.Inc()
		}
		return fmt.Errorf("faults: transient execution fault at %v", now)
	}
	return nil
}

// AdvanceTo applies every outage transition in (cursor, now] to the
// sites' availability flags, emitting faults.site_down / faults.site_up
// counters and one `faults.outage` span per outage window entered. Time
// never rewinds; calls with now <= cursor are no-ops.
//
// AdvanceTo is the injector's once-per-epoch step: it is the only method
// that mutates injector state (the epoch cursor and each site plan's
// per-family window cursors), so a sharded fleet calls it on the epoch
// boundary and the per-query hooks stay read-only through the parallel
// phase that follows.
func (in *Injector) AdvanceTo(now time.Duration) {
	if now <= in.cursor {
		return
	}
	for _, sp := range in.plan.sites {
		// Windows before the cursor ended at or before in.cursor, so they
		// cannot transition in (cursor, now]; later windows start after
		// now. Only the slice between needs a look.
		for _, w := range sp.outages[sp.outageCur:] {
			if w.From > now {
				break
			}
			if w.From > in.cursor {
				in.siteDown(sp.site, w)
			}
			if w.To > in.cursor && w.To <= now {
				in.siteUp(sp.site, w.To)
			}
		}
		sp.outageCur = advanceWindowCursor(sp.outages, sp.outageCur, now)
		sp.degradeCur = advanceWindowCursor(sp.degrades, sp.degradeCur, now)
		sp.execCur = advanceWindowCursor(sp.execFaults, sp.execCur, now)
		sp.site.SetAvailable(!inWindowsFrom(sp.outages, sp.outageCur, now))
	}
	in.cursor = now
}

// Schedule registers every outage transition as a kernel event so the
// sim clock itself drives Site.SetAvailable (the core.Platform path).
func (in *Injector) Schedule(eng *sim.Engine) error {
	if eng == nil {
		return fmt.Errorf("faults: nil engine")
	}
	for _, sp := range in.plan.sites {
		sp := sp
		for _, w := range sp.outages {
			w := w
			eng.At(w.From, func() { in.siteDown(sp.site, w) })
			eng.At(w.To, func() { in.siteUp(sp.site, w.To) })
		}
	}
	return nil
}

func (in *Injector) siteDown(s *xedge.Site, w Window) {
	s.SetAvailable(false)
	in.m.siteDown.Inc()
	if sc := in.siteCounters(s.Name()); sc != nil {
		sc.outage.Inc()
	}
	if in.scope.Tracer.Enabled() {
		in.scope.Tracer.SpanAt("faults", "faults.outage", w.From, w.To,
			trace.String("site", s.Name()), trace.Dur("length", w.To-w.From))
	}
	if in.scope.Events.Enabled() {
		in.scope.Events.Emit(w.From, "faults", obs.SevWarn, "outage.begin",
			obs.String("site", s.Name()), obs.Dur("length", w.To-w.From))
	}
}

func (in *Injector) siteUp(s *xedge.Site, at time.Duration) {
	s.SetAvailable(true)
	in.m.siteUp.Inc()
	if in.scope.Events.Enabled() {
		in.scope.Events.Emit(at, "faults", obs.SevInfo, "outage.end",
			obs.String("site", s.Name()))
	}
}

// AdjustPath implements offload.PathAdjuster: inside a degradation
// window the destination's access links lose degradeLossDelta extra
// packets (total loss capped at 0.95) and keep only degradeBandwidthFactor
// of their bandwidth. Outside windows the path is returned untouched.
//
// AdjustPath never mutates injector state (the degraded-path counter is
// atomic), so concurrent calls from the parallel decision phase of a
// sharded fleet are race-clean.
func (in *Injector) AdjustPath(dest string, p network.Path, now time.Duration) network.Path {
	sp, ok := in.plan.byName[dest]
	if !ok {
		return p
	}
	degradeCur := sp.degradeCur
	if now < in.cursor {
		degradeCur = 0
	}
	if !inWindowsFrom(sp.degrades, degradeCur, now) {
		return p
	}
	adj := network.Path{Name: p.Name, Links: make([]network.LinkSpec, len(p.Links))}
	copy(adj.Links, p.Links)
	for i := range adj.Links {
		adj.Links[i].UpMbps *= degradeBandwidthFactor
		adj.Links[i].DownMbps *= degradeBandwidthFactor
		loss := adj.Links[i].BaseLoss + degradeLossDelta
		if loss > 0.95 {
			loss = 0.95
		}
		adj.Links[i].BaseLoss = loss
	}
	in.m.degradedPaths.Inc()
	return adj
}

// Describe renders the schedule deterministically, one line per window,
// sorted by site then time — the human-readable fault plan format.
func (p *Plan) Describe() string {
	type line struct {
		site, kind string
		w          Window
	}
	var lines []line
	for _, sp := range p.sites {
		for _, w := range sp.outages {
			lines = append(lines, line{sp.site.Name(), "outage", w})
		}
		for _, w := range sp.degrades {
			lines = append(lines, line{sp.site.Name(), "degrade", w})
		}
		for _, w := range sp.execFaults {
			lines = append(lines, line{sp.site.Name(), "exec-fault", w})
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].site != lines[j].site {
			return lines[i].site < lines[j].site
		}
		if lines[i].w.From != lines[j].w.From {
			return lines[i].w.From < lines[j].w.From
		}
		return lines[i].kind < lines[j].kind
	})
	out := ""
	for _, l := range lines {
		out += fmt.Sprintf("%-20s %-10s %12v -> %12v\n", l.site, l.kind, l.w.From, l.w.To)
	}
	return out
}
