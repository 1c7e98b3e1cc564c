// Package fleet co-simulates multiple OpenVDAP vehicles sharing the same
// XEdge and cloud infrastructure. Each vehicle has its own VCU, DSF, and
// offloading engine, but the remote sites are shared objects, so one
// vehicle's offloads raise queueing delay for everyone — the multi-tenant
// contention the paper's edge architecture must survive.
//
// A fleet round runs one way: the epoch-barrier executor in sharded.go
// (ShardedInvokeAll / ShardedInvokeAllTolerant). Every vehicle decides
// against the shared sites as they stood at the start of the round, then
// the offloading ones commit in vehicle-index order; Config.Shards = 1 is
// the executor's serial case, not a different model.
//
// Concurrency: a Fleet and everything it owns (vehicles, engines, shared
// sites) belong to a single goroutine. Replication harnesses run
// one whole fleet per worker (see internal/runner) and merge telemetry
// afterwards; two goroutines must never invoke the same fleet. The one
// sanctioned form of intra-fleet parallelism is the executor's own: it
// partitions vehicles into shard lanes for the read-only decision phase
// and returns to the fleet's single goroutine for the commit phase.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/edgeos"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

// Vehicle is one fleet member.
type Vehicle struct {
	Name    string
	Engine  *offload.Engine
	Manager *edgeos.ElasticManager
}

// Fleet is a set of vehicles over shared infrastructure.
type Fleet struct {
	sites    []*xedge.Site
	vehicles []*Vehicle
	injector *faults.Injector

	// shards is the lane count for ShardedInvokeAll (Config.Shards,
	// clamped to [1, vehicles]); shardSet is built lazily and reused
	// across rounds.
	shards   int
	shardSet []*Shard

	// lanes is the fleet's observability: one private obs.Scope per emitter,
	// in canonical merge order — lanes[0] the fleet's own (commit-phase
	// markers), lanes[1] the fault injector's, lanes[2+i] vehicle i's (per
	// vehicle, not per shard: determinism contract (3) in sharded.go). All
	// zero until InstrumentSharded / EnableFlightRecorder fill them in.
	lanes []obs.Scope

	// Per-round working buffers, preallocated at vehicle count and reused
	// by every shardedInvokeAll round, so a round allocates no per-vehicle
	// buffers (TestRoundAllocsPerVehicle bounds what it does allocate).
	prepBuf []*edgeos.PreparedInvocation
	resBuf  []edgeos.InvocationResult
	errBuf  []error
}

// Config parameterizes New.
type Config struct {
	// Vehicles is the fleet size (>= 1).
	Vehicles int
	// RSUs is how many edge sites share the corridor. Zero means 4.
	RSUs int
	// SpeedJitterMPH, when positive, perturbs each vehicle's speedMPH by a
	// uniform draw in [-jitter, +jitter] MPH from the fleet's RNG, so
	// replications with different seeds explore different traffic mixes.
	SpeedJitterMPH float64
	// RNG drives the fleet's random draws (speed jitter). Nil falls back
	// to a fixed-seed stream, keeping construction deterministic.
	RNG *sim.RNG
	// Resilience, when non-nil, installs the offload resilience policy
	// (retry + circuit breaker + degradation ladder) on every vehicle's
	// engine.
	Resilience *offload.Policy
	// Faults, when non-nil, compiles a deterministic fault plan over the
	// shared sites from the fleet RNG and attaches its injector: site
	// outages, link degradation, and transient execution faults. Every
	// round advances it to the round's virtual time before deciding.
	Faults *faults.PlanConfig
	// Shards is the lane count used by ShardedInvokeAll: vehicles are
	// partitioned into this many contiguous index ranges, each with its
	// own sim.Engine lane. Values outside [1, Vehicles] are clamped.
	// Shard count never changes results — sharded rounds are
	// byte-identical for any Shards value with the same seed — only how
	// many cores the decision phase can use. Zero means 1.
	Shards int
	// RSURadiusM sets the RSU coverage radius. Zero keeps the historical
	// default — RSUs cover the whole corridor, making contention (not
	// coverage) the variable under study. Scaling experiments set a radius
	// below half the RSU spacing so each vehicle sees only the RSU whose
	// disk it is in (plus the cloud) and load spreads along the corridor.
	RSURadiusM float64
}

// Every fleet drives the same corridor — roadLengthM long with
// baseStations LTE towers — at speedMPH, each vehicle under the DSF's greedy
// earliest-finish policy with the ALPR kidnapper-search service installed.
const (
	roadLengthM  = 20000.0
	baseStations = 20
	speedMPH     = 35.0
)

// New assembles the fleet: shared road, shared RSU/cloud sites, and one
// full vehicle stack per member, spaced evenly along the corridor.
func New(cfg Config) (*Fleet, error) {
	if cfg.Vehicles < 1 {
		return nil, fmt.Errorf("fleet: need at least one vehicle, got %d", cfg.Vehicles)
	}
	if cfg.RSUs == 0 {
		cfg.RSUs = 4
	}
	road, err := geo.NewRoad(roadLengthM)
	if err != nil {
		return nil, err
	}
	road.PlaceStations(baseStations, geo.BaseStation, 900, 0, "bs")
	// By default RSUs cover the whole corridor so contention, not
	// coverage, is the variable under study; RSURadiusM narrows the disks.
	rsuRadius := roadLengthM
	if cfg.RSURadiusM > 0 {
		rsuRadius = cfg.RSURadiusM
	}
	road.PlaceStations(cfg.RSUs, geo.RSU, rsuRadius, 0, "rsu")
	sites, err := xedge.PlaceAlongRoad(road)
	if err != nil {
		return nil, err
	}
	cl, err := xedge.NewCloud()
	if err != nil {
		return nil, err
	}
	sites = append(sites, cl)

	f := &Fleet{sites: sites}
	rng := cfg.RNG
	if rng == nil {
		rng = sim.NewStream(1, 0)
	}
	spacing := roadLengthM / float64(cfg.Vehicles)
	for i := 0; i < cfg.Vehicles; i++ {
		m, err := vcu.DefaultVCU()
		if err != nil {
			return nil, err
		}
		dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
		if err != nil {
			return nil, err
		}
		speed := speedMPH
		if cfg.SpeedJitterMPH > 0 {
			speed += rng.Uniform(-cfg.SpeedJitterMPH, cfg.SpeedJitterMPH)
			if speed < 5 {
				speed = 5
			}
		}
		mob := geo.Mobility{Road: road, SpeedMS: geo.MPH(speed), StartX: float64(i) * spacing}
		eng, err := offload.NewEngine(dsf, mob, sites)
		if err != nil {
			return nil, err
		}
		mgr, err := edgeos.NewElasticManager(eng, edgeos.MinLatency)
		if err != nil {
			return nil, err
		}
		if err := mgr.Register(&edgeos.Service{
			Name:     "kidnapper-search",
			Priority: edgeos.PriorityInteractive,
			Deadline: 2 * time.Second,
			DAG:      tasks.ALPR(),
			Image:    []byte("a3"),
		}); err != nil {
			return nil, err
		}
		if cfg.Resilience != nil {
			pol := *cfg.Resilience
			eng.SetResilience(&pol)
		}
		f.vehicles = append(f.vehicles, &Vehicle{
			Name:    fmt.Sprintf("cav-%d", i),
			Engine:  eng,
			Manager: mgr,
		})
	}
	if cfg.Faults != nil {
		// The plan is compiled after all vehicle draws so the fault stream
		// forks from a fixed point of the fleet RNG — policy on/off fleets
		// built from equal seeds see identical worlds and identical faults.
		plan, err := faults.NewPlan(*cfg.Faults, rng.Fork(), f.sites)
		if err != nil {
			return nil, err
		}
		inj, err := faults.NewInjector(plan)
		if err != nil {
			return nil, err
		}
		inj.Attach()
		for _, v := range f.vehicles {
			v.Engine.SetPathAdjuster(inj.AdjustPath)
		}
		f.injector = inj
	}
	f.shards = cfg.Shards
	if f.shards < 1 {
		f.shards = 1
	}
	if f.shards > len(f.vehicles) {
		f.shards = len(f.vehicles)
	}
	f.lanes = make([]obs.Scope, 2+len(f.vehicles))
	f.prepBuf = make([]*edgeos.PreparedInvocation, len(f.vehicles))
	f.resBuf = make([]edgeos.InvocationResult, len(f.vehicles))
	f.errBuf = make([]error, len(f.vehicles))
	return f, nil
}

// Faults returns the fleet's fault injector, nil when no fault plan was
// configured.
func (f *Fleet) Faults() *faults.Injector { return f.injector }

// Vehicles returns fleet members in order.
func (f *Fleet) Vehicles() []*Vehicle {
	out := make([]*Vehicle, len(f.vehicles))
	copy(out, f.vehicles)
	return out
}

// Sites returns the shared infrastructure.
func (f *Fleet) Sites() []*xedge.Site { return f.sites }

// RoundResult aggregates one invocation round across the fleet.
type RoundResult struct {
	Invocations int
	HangUps     int
	Total       time.Duration
	Max         time.Duration
	// OffloadShare is the fraction of completed invocations that left the
	// vehicle.
	OffloadShare float64
	// Failures counts vehicles whose invocation errored outright (only
	// possible under fault injection; ShardedInvokeAllTolerant records
	// these instead of aborting the round).
	Failures int
	// DeadlineHits counts completed invocations that met the service
	// deadline; Fallbacks and Degraded count resilience-ladder outcomes.
	DeadlineHits int
	Fallbacks    int
	Degraded     int
}

// aggregate folds the first n per-vehicle outcomes in the round buffers
// into a RoundResult, in vehicle-index order: a round's aggregation is a
// pure function of the (result, error) vector, whichever lanes filled it.
func (f *Fleet) aggregate(n int) RoundResult {
	var rr RoundResult
	offloaded := 0
	for i := 0; i < n; i++ {
		rr.Invocations++
		if f.errBuf[i] != nil {
			rr.Failures++
			continue
		}
		res := f.resBuf[i]
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

// Mean returns the average completed-invocation latency of a round.
func (r RoundResult) Mean() time.Duration {
	done := r.Invocations - r.HangUps - r.Failures
	if done <= 0 {
		return 0
	}
	return r.Total / time.Duration(done)
}
