// Package xedge models the external computing entities OpenVDAP offloads
// to (paper §IV): XEdge servers running on RSUs, base stations, and traffic
// signals, plus neighboring vehicles reachable over DSRC. Each site owns
// real executors (multi-tenant queueing included) and an access network
// path; reachability follows the vehicle's position.
package xedge

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/network"
)

// SiteKind classifies offload destinations.
type SiteKind int

const (
	// RSU is a roadside-unit XEdge server (DSRC/5G access, small coverage).
	RSU SiteKind = iota + 1
	// BaseStationEdge is an XEdge server co-located with a cellular tower.
	BaseStationEdge
	// NeighborVehicle is another CAV sharing compute over DSRC.
	NeighborVehicle
	// CloudSite is the remote datacenter behind the WAN.
	CloudSite
)

var siteKindNames = map[SiteKind]string{
	RSU: "rsu", BaseStationEdge: "base-station-edge",
	NeighborVehicle: "neighbor-vehicle", CloudSite: "cloud",
}

// String returns the lower-case kind name.
func (k SiteKind) String() string {
	if s, ok := siteKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("site-kind(%d)", int(k))
}

// Site is one offload destination: compute executors behind a network path.
//
// Concurrency — the epoch-barrier ownership model. A Site's executor
// queues are mutable simulation state. Sites may be shared by every
// vehicle of one fleet (that contention is the point), but never across
// concurrently-running replications — parallel harnesses build a fresh
// set of sites per replication (see internal/runner and fleet.New).
// Within one fleet, intra-run sharding (fleet.ShardedInvokeAll) splits
// every invocation round into two phases:
//
//   - decision phase: vehicle shards run concurrently and may only READ
//     site state (Reachable, EstimateExec, Access, Available). The fleet
//     calls Freeze() on every shared site for the duration; a frozen site
//     panics on any mutation, turning an ownership bug into a loud,
//     deterministic failure instead of a data race.
//   - commit phase: mutations (Submit, SetAvailable, Preload) run after
//     Unfreeze(), on the fleet's single goroutine, in canonical
//     vehicle-index order.
//
// All read paths used during the decision phase are genuinely read-only:
// the per-class service-rate table is warmed eagerly at construction (see
// warmRates), so estimates never fill caches concurrently.
type Site struct {
	name      string
	kind      SiteKind
	station   geo.Station // zero Station (Radius 0) means position-independent
	access    network.Path
	execs     []*hardware.Executor
	available bool
	frozen    bool
	faultFn   FaultFunc

	// svcRates holds, per task class, each executor's effective
	// throughput (GFLOPS; <= 0 when the executor cannot run the class).
	// Processors are immutable after construction, so the table is warmed
	// once for every known class in New and never invalidated — which is
	// what lets concurrent decision-phase estimates treat it as read-only.
	// bestExec reads these instead of re-resolving the throughput table
	// per executor per estimate.
	svcRates map[hardware.Class][]float64
}

// FaultFunc inspects a submission at virtual time now and returns a
// non-nil error to inject a failure (transient outage windows, chaos
// schedules). Estimates are deliberately not consulted: an injected fault
// is a surprise the offloading layer discovers at execution time.
type FaultFunc func(now time.Duration) error

// New assembles a site from processors and an access path.
func New(name string, kind SiteKind, station geo.Station, access network.Path, procs ...*hardware.Processor) (*Site, error) {
	if name == "" {
		return nil, fmt.Errorf("xedge: site has no name")
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("xedge: site %s has no processors", name)
	}
	if len(access.Links) == 0 {
		return nil, fmt.Errorf("xedge: site %s has no access path", name)
	}
	s := &Site{name: name, kind: kind, station: station, access: access, available: true}
	for _, p := range procs {
		exec, err := hardware.NewExecutor(p)
		if err != nil {
			return nil, fmt.Errorf("site %s: %w", name, err)
		}
		s.execs = append(s.execs, exec)
	}
	s.warmRates()
	return s, nil
}

// warmRates fills the service-rate table for every known task class so
// decision-phase reads never mutate the site (see the ownership model on
// Site).
func (s *Site) warmRates() {
	s.svcRates = make(map[hardware.Class][]float64, len(hardware.Classes()))
	for _, class := range hardware.Classes() {
		rates := make([]float64, len(s.execs))
		for i, e := range s.execs {
			rates[i] = e.Processor().EffectiveGFLOPS(class)
		}
		s.svcRates[class] = rates
	}
}

// NewRSU builds the standard RSU configuration: a Xeon plus an edge GPU,
// reached over DSRC, covering the given station.
func NewRSU(station geo.Station) (*Site, error) {
	xeon, err := hardware.Lookup(hardware.DeviceEdgeXeon)
	if err != nil {
		return nil, err
	}
	gpu, err := hardware.Lookup(hardware.DeviceEdgeGPU)
	if err != nil {
		return nil, err
	}
	dsrc, err := network.LookupLink("dsrc")
	if err != nil {
		return nil, err
	}
	path := network.Path{Name: "vehicle-rsu", Links: []network.LinkSpec{dsrc}}
	return New(station.ID, RSU, station, path, xeon, gpu)
}

// NewNeighborVehicle builds a peer CAV's shareable compute (one TX2-class
// GPU) reached over DSRC. The neighbor is modeled as staying in convoy
// range (position-independent reachability).
func NewNeighborVehicle(name string) (*Site, error) {
	gpu, err := hardware.Lookup(hardware.DeviceTX2MaxP)
	if err != nil {
		return nil, err
	}
	dsrc, err := network.LookupLink("dsrc")
	if err != nil {
		return nil, err
	}
	path := network.Path{Name: "vehicle-neighbor", Links: []network.LinkSpec{dsrc}}
	return New(name, NeighborVehicle, geo.Station{}, path, gpu)
}

// NewCloud builds the remote-cloud site: a large node behind LTE + WAN.
func NewCloud() (*Site, error) {
	node, err := hardware.Lookup(hardware.DeviceCloudNode)
	if err != nil {
		return nil, err
	}
	lte, err := network.LookupLink("lte")
	if err != nil {
		return nil, err
	}
	wan, err := network.LookupLink("wan")
	if err != nil {
		return nil, err
	}
	path := network.Path{Name: "vehicle-cloud", Links: []network.LinkSpec{lte, wan}}
	return New("cloud", CloudSite, geo.Station{}, path, node)
}

// Name returns the site name.
func (s *Site) Name() string { return s.name }

// Kind returns the site kind.
func (s *Site) Kind() SiteKind { return s.kind }

// Access returns the network path from the vehicle to this site.
func (s *Site) Access() network.Path { return s.access }

// Station returns the coverage anchor (zero for position-independent sites).
func (s *Site) Station() geo.Station { return s.station }

// SetAvailable marks the site up or down (maintenance, backhaul cut). An
// unavailable site is unreachable from everywhere and rejects direct
// submissions and estimates. The service-rate table is immutable after
// construction (processors never change), so availability flips leave it
// untouched; bestExec consults the availability flag before any rate.
func (s *Site) SetAvailable(up bool) {
	s.assertUnfrozen("SetAvailable")
	s.available = up
}

// Freeze marks the start of a parallel decision phase: until Unfreeze,
// every mutation (Submit, Preload, SetAvailable, SetFaultInjector) panics.
// The fleet's sharded executor freezes all shared sites while vehicle
// shards estimate concurrently, so any code path that would mutate a site
// from the decision phase fails loudly and deterministically instead of
// racing. See the ownership model documented on Site.
func (s *Site) Freeze() { s.frozen = true }

// Unfreeze ends the parallel decision phase; the (single-threaded) commit
// phase may mutate the site again.
func (s *Site) Unfreeze() { s.frozen = false }

// Frozen reports whether the site is in a parallel decision phase.
func (s *Site) Frozen() bool { return s.frozen }

// assertUnfrozen panics when a mutation is attempted during a parallel
// decision phase — an ownership-model violation, not a recoverable error.
func (s *Site) assertUnfrozen(op string) {
	if s.frozen {
		panic(fmt.Sprintf("xedge: %s on frozen site %s during parallel decision phase (mutations belong to the commit phase; see Site ownership model)", op, s.name))
	}
}

// SetFaultInjector installs fn as the site's submission-time fault hook
// (nil removes it). When fn returns an error, Submit fails without
// reserving an executor.
func (s *Site) SetFaultInjector(fn FaultFunc) {
	s.assertUnfrozen("SetFaultInjector")
	s.faultFn = fn
}

// Available reports whether the site is serving.
func (s *Site) Available() bool { return s.available }

// Reachable reports whether a vehicle at p can use this site.
func (s *Site) Reachable(p geo.Point) bool {
	if !s.available {
		return false
	}
	if s.station.Radius <= 0 {
		return true
	}
	return s.station.Covers(p)
}

// ratesFor returns the per-executor throughput for a task class. Every
// class in the hardware enum was warmed at construction; an out-of-enum
// class (possible only through future extension) is computed on the fly
// without touching the table, keeping this a pure read — concurrent
// decision-phase estimates depend on that.
func (s *Site) ratesFor(class hardware.Class) []float64 {
	if rates, ok := s.svcRates[class]; ok {
		return rates
	}
	rates := make([]float64, len(s.execs))
	for i, e := range s.execs {
		rates[i] = e.Processor().EffectiveGFLOPS(class)
	}
	return rates
}

// bestExec picks the executor with the earliest finish for the work. A
// site marked down via SetAvailable rejects work outright: Reachable is
// only consulted on the estimation path, so without this check a direct
// submit to a down site would silently succeed. Service times come from
// the memoized class rates, so the per-task estimate loop does no
// throughput-table lookups and allocates nothing for incompatible
// executors.
func (s *Site) bestExec(now time.Duration, class hardware.Class, gflop float64) (*hardware.Executor, time.Duration, error) {
	if !s.available {
		return nil, 0, fmt.Errorf("xedge: site %s is unavailable", s.name)
	}
	if gflop < 0 {
		// Matches the pre-cache outcome: every executor rejected the work.
		return nil, 0, fmt.Errorf("xedge: site %s cannot run %v work", s.name, class)
	}
	rates := s.ratesFor(class)
	var best *hardware.Executor
	var bestFinish time.Duration
	for i, e := range s.execs {
		rate := rates[i]
		if rate <= 0 {
			continue
		}
		// Same arithmetic as hardware.Processor.ExecTime, so cached and
		// uncached estimates agree to the nanosecond.
		exec := time.Duration(gflop / rate * float64(time.Second))
		finish := e.EarliestStart(now) + exec
		if best == nil || finish < bestFinish {
			best, bestFinish = e, finish
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("xedge: site %s cannot run %v work", s.name, class)
	}
	return best, bestFinish, nil
}

// EstimateExec predicts completion of the compute portion only.
func (s *Site) EstimateExec(now time.Duration, class hardware.Class, gflop float64) (time.Duration, error) {
	_, finish, err := s.bestExec(now, class, gflop)
	return finish, err
}

// Submit reserves the best executor for the work. Injected faults (see
// SetFaultInjector) fail the submission before any reservation is made.
// Submit is a commit-phase mutation: calling it on a frozen site panics.
func (s *Site) Submit(now time.Duration, class hardware.Class, gflop float64) (start, finish time.Duration, err error) {
	s.assertUnfrozen("Submit")
	exec, _, err := s.bestExec(now, class, gflop)
	if err != nil {
		return 0, 0, err
	}
	if s.faultFn != nil {
		if err := s.faultFn(now); err != nil {
			return 0, 0, fmt.Errorf("xedge: site %s: %w", s.name, err)
		}
	}
	return exec.Submit(now, class, gflop)
}

// Preload occupies the site with background tenant work: n tasks of the
// given class and size submitted at time 0, raising queueing delay for
// subsequent vehicles (multi-tenancy).
func (s *Site) Preload(n int, class hardware.Class, gflop float64) error {
	for i := 0; i < n; i++ {
		if _, _, err := s.Submit(0, class, gflop); err != nil {
			return err
		}
	}
	return nil
}

// Utilization aggregates executor utilization over the horizon.
func (s *Site) Utilization(horizon time.Duration) float64 {
	if len(s.execs) == 0 {
		return 0
	}
	var sum float64
	for _, e := range s.execs {
		sum += e.Utilization(horizon)
	}
	return sum / float64(len(s.execs))
}

// PendingWork returns the total committed busy time still ahead of now
// across the site's executors — its queue depth expressed in virtual time.
// Read-only (no freeze assertion), so health gauges may sample it any time.
func (s *Site) PendingWork(now time.Duration) time.Duration {
	var sum time.Duration
	for _, e := range s.execs {
		sum += e.PendingWork(now)
	}
	return sum
}

// PlaceAlongRoad instantiates RSU sites for every RSU station on the road.
func PlaceAlongRoad(road *geo.Road) ([]*Site, error) {
	if road == nil {
		return nil, fmt.Errorf("xedge: nil road")
	}
	var sites []*Site
	for _, st := range road.StationsOfKind(geo.RSU) {
		s, err := NewRSU(st)
		if err != nil {
			return nil, err
		}
		sites = append(sites, s)
	}
	return sites, nil
}
