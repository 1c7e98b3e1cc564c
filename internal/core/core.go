// Package core assembles the full OpenVDAP stack into one vehicle
// platform: the simulation kernel, the road world, the VCU with its DSF
// scheduler, the offloading engine over XEdge and cloud sites, EdgeOSv
// (elastic management, isolation, security, data sharing, privacy), the
// DDI data tier, and the libvdap registry and RESTful API.
//
// This is the public surface examples and tools build on.
package core

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/libvdap"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

// Config parameterizes a platform instance. The zero value is not valid;
// use DefaultConfig as a base.
type Config struct {
	// Seed drives every random stream; same seed, same run.
	Seed int64
	// SpeedMPH is the vehicle's cruise speed.
	SpeedMPH float64
	// DataDir is where DDI persists its disk tier.
	DataDir string
	// Secret is the vehicle's long-term secret (>= 16 bytes).
	Secret []byte
	// Resilience, when non-nil, installs the offload resilience policy
	// (per-site circuit breakers, bounded retry, degradation ladder) on the
	// offloading engine.
	Resilience *offload.Policy
	// Faults, when non-nil, compiles a deterministic fault plan over the
	// platform's sites from the kernel's RNG, attaches its injector to every
	// site, schedules outage transitions on the simulation kernel, and routes
	// link degradation through the offload engine's path adjuster.
	Faults *faults.PlanConfig
}

// The world every platform runs in: a 20 km corridor with LTE towers every
// 1 km and RSUs every 2 km, the DSF's greedy earliest-finish policy, elastic
// management for minimum latency, and a ten-minute pseudonym epoch.
const (
	roadLengthM          = 20000
	baseStations         = 20
	rsus                 = 10
	rsuCoverageM         = 400
	baseStationCoverageM = 900
	pseudonymRotation    = 10 * time.Minute
)

// DefaultConfig returns the single-vehicle scenario at seed 1 and a 35 MPH
// cruise.
func DefaultConfig(dataDir string) Config {
	return Config{
		Seed:     1,
		SpeedMPH: 35,
		DataDir:  dataDir,
		Secret:   []byte("openvdap-vehicle-longterm-secret"),
	}
}

// Platform is one running OpenVDAP vehicle node.
//
// Concurrency: the simulation state (kernel, road, VCU, offload engine,
// sites, EdgeOSv modules) is owned by a single run loop. To serve live
// HTTP traffic while that loop advances, the loop MUST step the kernel
// through AdvanceTo (which holds the API server's run lock exclusively)
// rather than calling Engine().RunUntil directly; libvdap handlers take
// the same lock shared or exclusive per the contract documented on
// libvdap.Server. The purely observational stores (the four of the
// platform's obs.Scope — telemetry registry, tracer, series store, flight
// recorder — and the virtual clock) are internally synchronized and
// readable lock-free at any time. Replication harnesses that need many
// platforms at once build one per worker and merge telemetry afterwards
// (see internal/runner).
type Platform struct {
	cfg Config

	engine   *sim.Engine
	road     *geo.Road
	mobility geo.Mobility

	mhep     *vcu.MHEP
	dsf      *vcu.DSF
	offload  *offload.Engine
	elastic  *edgeos.ElasticManager
	runtime  *edgeos.ContainerRuntime
	security *edgeos.SecurityModule
	sharing  *edgeos.DataSharing
	privacy  *edgeos.PrivacyModule
	data     *ddi.DDI
	cloud    *cloud.Cloud
	registry *libvdap.Registry
	api      *libvdap.Server
	scope    obs.Scope
	firewall *edgeos.Firewall
	injector *faults.Injector
	sampler  *obs.Sampler

	stopCollect func()
	stopSample  func()
}

// New assembles a platform.
func New(cfg Config) (*Platform, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("core: DataDir is required")
	}
	if len(cfg.Secret) < 16 {
		return nil, fmt.Errorf("core: Secret must be at least 16 bytes")
	}

	engine := sim.NewEngine(cfg.Seed)

	road, err := geo.NewRoad(roadLengthM)
	if err != nil {
		return nil, err
	}
	road.PlaceStations(baseStations, geo.BaseStation, baseStationCoverageM, 0, "bs")
	road.PlaceStations(rsus, geo.RSU, rsuCoverageM, 0, "rsu")
	mobility := geo.Mobility{Road: road, SpeedMS: geo.MPH(cfg.SpeedMPH)}

	mhep, err := vcu.DefaultVCU()
	if err != nil {
		return nil, err
	}
	dsf, err := vcu.NewDSF(mhep, vcu.GreedyEFT{})
	if err != nil {
		return nil, err
	}

	var sites []*xedge.Site
	rsuSites, err := xedge.PlaceAlongRoad(road)
	if err != nil {
		return nil, err
	}
	sites = append(sites, rsuSites...)
	cl, err := cloud.New()
	if err != nil {
		return nil, err
	}
	sites = append(sites, cl.Site())

	eng, err := offload.NewEngine(dsf, mobility, sites)
	if err != nil {
		return nil, err
	}
	elastic, err := edgeos.NewElasticManager(eng, edgeos.MinLatency)
	if err != nil {
		return nil, err
	}
	runtime := edgeos.NewContainerRuntime()
	security, err := edgeos.NewSecurityModule(runtime, elastic)
	if err != nil {
		return nil, err
	}
	sharing, err := edgeos.NewDataSharing(cfg.Secret, 64)
	if err != nil {
		return nil, err
	}
	privacy, err := edgeos.NewPrivacyModule(cfg.Secret, pseudonymRotation, 100)
	if err != nil {
		return nil, err
	}
	data, err := ddi.New(ddi.Options{Dir: cfg.DataDir, Mobility: mobility}, engine.RNG().Fork())
	if err != nil {
		return nil, err
	}
	registry := libvdap.NewRegistry()
	if err := libvdap.DefaultCommonLibrary(registry); err != nil {
		return nil, err
	}

	// One scope for the whole node: every component reports into the same
	// four stores, and the API server serves them.
	scope := obs.Scope{
		Metrics: telemetry.NewRegistry(),
		Tracer:  trace.New(),
		Events:  obs.NewRecorder(0),
		Series:  obs.NewSeriesStore(0),
	}
	dsf.Instrument(scope)
	eng.Instrument(scope)
	elastic.Instrument(scope)
	data.Instrument(scope)
	api, err := libvdap.NewServer(registry, mhep, data, sharing, elastic, scope, engine.Now)
	if err != nil {
		return nil, err
	}

	if cfg.Resilience != nil {
		pol := *cfg.Resilience
		eng.SetResilience(&pol)
	}
	var injector *faults.Injector
	if cfg.Faults != nil {
		plan, err := faults.NewPlan(*cfg.Faults, engine.RNG().Fork(), sites)
		if err != nil {
			return nil, err
		}
		injector, err = faults.NewInjector(plan)
		if err != nil {
			return nil, err
		}
		injector.Instrument(scope)
		injector.Attach()
		if err := injector.Schedule(engine); err != nil {
			return nil, err
		}
		eng.SetPathAdjuster(injector.AdjustPath)
	}

	return &Platform{
		cfg:      cfg,
		engine:   engine,
		road:     road,
		mobility: mobility,
		mhep:     mhep,
		dsf:      dsf,
		offload:  eng,
		elastic:  elastic,
		runtime:  runtime,
		security: security,
		sharing:  sharing,
		privacy:  privacy,
		data:     data,
		cloud:    cl,
		registry: registry,
		api:      api,
		scope:    scope,
		firewall: edgeos.DefaultVehicleFirewall(),
		injector: injector,
	}, nil
}

// Faults returns the platform's fault injector, nil when no fault plan was
// configured.
func (p *Platform) Faults() *faults.Injector { return p.injector }

// Engine returns the simulation kernel.
func (p *Platform) Engine() *sim.Engine { return p.engine }

// Road returns the world model.
func (p *Platform) Road() *geo.Road { return p.road }

// Mobility returns the vehicle's current mobility.
func (p *Platform) Mobility() geo.Mobility { return p.mobility }

// MHEP returns the VCU hardware platform.
func (p *Platform) MHEP() *vcu.MHEP { return p.mhep }

// DSF returns the scheduler.
func (p *Platform) DSF() *vcu.DSF { return p.dsf }

// Offload returns the offloading engine.
func (p *Platform) Offload() *offload.Engine { return p.offload }

// Elastic returns the EdgeOSv elastic manager.
func (p *Platform) Elastic() *edgeos.ElasticManager { return p.elastic }

// Security returns the EdgeOSv security module.
func (p *Platform) Security() *edgeos.SecurityModule { return p.security }

// Runtime returns the container runtime.
func (p *Platform) Runtime() *edgeos.ContainerRuntime { return p.runtime }

// Sharing returns the data-sharing module.
func (p *Platform) Sharing() *edgeos.DataSharing { return p.sharing }

// Privacy returns the privacy module.
func (p *Platform) Privacy() *edgeos.PrivacyModule { return p.privacy }

// DDI returns the driving-data integrator.
func (p *Platform) DDI() *ddi.DDI { return p.data }

// Cloud returns the remote tier.
func (p *Platform) Cloud() *cloud.Cloud { return p.cloud }

// Registry returns the libvdap model registry.
func (p *Platform) Registry() *libvdap.Registry { return p.registry }

// API returns the libvdap RESTful handler, ready for http.ListenAndServe.
func (p *Platform) API() http.Handler { return p.api }

// Server returns the libvdap API server itself, for serve-tier tuning
// (admission bounds, cache stats) and its Advance run lock.
func (p *Platform) Server() *libvdap.Server { return p.api }

// AdvanceTo advances the simulation kernel to virtual time t under the API
// server's exclusive run lock. This is the only safe way to step a
// platform that is concurrently serving HTTP traffic; see the Platform
// concurrency note.
func (p *Platform) AdvanceTo(t time.Duration) error {
	return p.api.Advance(func() error {
		if t <= p.engine.Now() {
			return nil
		}
		return p.engine.RunUntil(t)
	})
}

// SetSpeedMPH changes the vehicle's cruise speed, propagating to the
// offloading engine's network-degradation model.
func (p *Platform) SetSpeedMPH(mph float64) {
	p.mobility.SpeedMS = geo.MPH(mph)
	p.offload.SetMobility(p.mobility)
}

// InstallService registers a service with the Security module using
// default container limits scaled by priority.
func (p *Platform) InstallService(s *edgeos.Service) error {
	shares := 100 * int(s.Priority)
	return p.security.Install(s, shares, 2048)
}

// InvokeService runs one invocation of a service at the current virtual
// time and advances the clock past its completion.
func (p *Platform) InvokeService(name string) (edgeos.InvocationResult, error) {
	res, err := p.elastic.Invoke(name, p.engine.Now())
	if err != nil {
		return res, err
	}
	if res.HungUp {
		p.scope.Metrics.Add("service."+name+".hangups", 1)
		return res, nil
	}
	p.scope.Metrics.Add("service."+name+".invocations", 1)
	p.scope.Metrics.ObserveDuration("service."+name+".latency_ms", res.Latency)
	p.scope.Metrics.Add("service."+name+".energy_j", res.EnergyJ)
	p.scope.Metrics.Add("dest."+res.Dest+".invocations", 1)
	if res.Completed > p.engine.Now() {
		if err := p.engine.RunUntil(res.Completed); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Metrics exposes the platform's telemetry registry.
func (p *Platform) Metrics() *telemetry.Registry { return p.scope.Metrics }

// Tracer exposes the platform's span recorder; every subsystem on the
// request path reports into it in virtual time.
func (p *Platform) Tracer() *trace.Tracer { return p.scope.Tracer }

// Firewall returns the vehicle's default-deny inbound firewall.
func (p *Platform) Firewall() *edgeos.Firewall { return p.firewall }

// AdmitFlow evaluates an inbound connection attempt against the firewall
// and records the outcome in telemetry.
func (p *Platform) AdmitFlow(f edgeos.Flow) (edgeos.Verdict, string) {
	v, rule := p.firewall.Evaluate(f)
	p.scope.Metrics.Add("firewall."+v.String(), 1)
	return v, rule
}

// StartCollection begins periodic DDI collection every interval of
// virtual time.
func (p *Platform) StartCollection(interval time.Duration) error {
	if p.stopCollect != nil {
		return fmt.Errorf("core: collection already running")
	}
	stop, err := p.engine.Every(interval, func() {
		// Collect reports ddi.collections / ddi.records_collected itself.
		if _, err := p.data.Collect(p.engine.Now()); err != nil {
			// Collection failures should not kill the simulation; the
			// store surfaces them on the next explicit access.
			p.scope.Metrics.Add("ddi.collect_errors", 1)
		}
	})
	if err != nil {
		return err
	}
	p.stopCollect = stop
	return nil
}

// FlightRecorder returns the platform's structured event ring.
func (p *Platform) FlightRecorder() *obs.Recorder { return p.scope.Events }

// Series returns the platform's metric time-series store.
func (p *Platform) Series() *obs.SeriesStore { return p.scope.Series }

// StartSampling begins snapshotting every registered metric into the
// series store at the given virtual-time interval (non-positive means
// obs.DefaultSampleInterval).
func (p *Platform) StartSampling(interval time.Duration) error {
	if p.stopSample != nil {
		return fmt.Errorf("core: sampling already running")
	}
	sp := obs.NewSampler(p.scope.Series, interval)
	sp.Watch(p.scope.Metrics)
	stop, err := sp.Start(p.engine)
	if err != nil {
		return err
	}
	p.sampler = sp
	p.stopSample = stop
	return nil
}

// StopSampling halts periodic metric sampling.
func (p *Platform) StopSampling() {
	if p.stopSample != nil {
		p.stopSample()
		p.stopSample = nil
		p.sampler = nil
	}
}

// StopCollection halts periodic collection.
func (p *Platform) StopCollection() {
	if p.stopCollect != nil {
		p.stopCollect()
		p.stopCollect = nil
	}
}

// MigrateOldData ships DDI records older than `before` to the cloud data
// server under the vehicle's current pseudonym.
func (p *Platform) MigrateOldData(before time.Duration) (int, time.Duration, error) {
	lte := p.cloud.Site().Access()
	return p.data.MigrateToCloud(
		p.cloud.Data(),
		p.privacy.Pseudonym(p.engine.Now()),
		before,
		func(bytes float64) (time.Duration, error) {
			return cloud.MigrationCost(lte, bytes)
		},
	)
}

// Report renders a human-readable scenario summary: virtual time, device
// utilization, per-service statistics, DDI activity, and the raw metrics.
func (p *Platform) Report() string {
	var b strings.Builder
	now := p.engine.Now()
	fmt.Fprintf(&b, "== OpenVDAP platform report @ t=%v ==\n", now)
	fmt.Fprintf(&b, "vehicle position %.0f m, speed %.1f m/s\n",
		p.mobility.PositionAt(now).X, p.mobility.SpeedMS)

	horizon := now
	if horizon <= 0 {
		horizon = time.Second
	}
	b.WriteString("\n-- VCU devices --\n")
	for _, prof := range p.mhep.Profiles(now, horizon) {
		fmt.Fprintf(&b, "%-18s %-6s util=%5.1f%% online=%v\n",
			prof.Name, prof.Kind, prof.Utilization*100, prof.Online)
	}

	b.WriteString("\n-- services --\n")
	for _, s := range p.elastic.Services() {
		st, err := p.elastic.Stats(s.Name)
		if err != nil {
			continue
		}
		avg := time.Duration(0)
		if n := st.Invocations - st.HangUps; n > 0 {
			avg = st.TotalLatency / time.Duration(n)
		}
		fmt.Fprintf(&b, "%-24s prio=%d state=%-8v runs=%-4d hangups=%-3d avg=%v energy=%.1fJ pipelines=%v\n",
			s.Name, s.Priority, s.State(), st.Invocations, st.HangUps,
			avg.Round(time.Millisecond), st.TotalEnergyJ, st.PipelineUse)
	}

	fwAllowed, fwDenied := p.firewall.Stats()
	fmt.Fprintf(&b, "\n-- firewall --\nallowed=%d denied=%d\n", fwAllowed, fwDenied)

	ups, downs, hitRate := p.data.Stats()
	fmt.Fprintf(&b, "\n-- DDI --\nrecords=%d uploads=%d downloads=%d cache-hit=%.2f\n",
		p.data.Store().Count(), ups, downs, hitRate)
	fmt.Fprintf(&b, "cloud archive: %d records, %d bytes\n",
		p.cloud.Data().Count(), p.cloud.Data().Bytes())

	if m := p.scope.Metrics.Render(); m != "" {
		b.WriteString("\n-- metrics --\n")
		b.WriteString(m)
	}
	return b.String()
}

// Close releases platform resources (the DDI disk tier).
func (p *Platform) Close() error {
	p.StopCollection()
	p.StopSampling()
	return p.data.Close()
}
