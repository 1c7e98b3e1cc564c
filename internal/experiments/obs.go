package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/sim"
)

// RunReportSchema versions the RUN_REPORT.json layout written by E17.
const RunReportSchema = "openvdap.run_report/v1"

// ObsConfig parameterizes RunObs (E17).
type ObsConfig struct {
	// Replications is how many independent faulted fleet worlds (default 4).
	Replications int
	// Parallel is the worker-pool size (non-positive: GOMAXPROCS). Output
	// is byte-identical at any level.
	Parallel int
	// Seed keys every replication's random substream.
	Seed int64
	// Vehicles per fleet (default 8) over RSUs shared edge sites (default 2).
	Vehicles int
	RSUs     int
	// Shards is the epoch-barrier lane count inside each fleet (default 2).
	// Output is byte-identical for any value.
	Shards int
	// Rounds of fleet-wide invocations per replication (default 8), spaced
	// Epoch apart (default 400 ms).
	Rounds int
	Epoch  time.Duration
	// SampleInterval is the sampler's virtual-time tick (non-positive:
	// obs.DefaultSampleInterval).
	SampleInterval time.Duration
	// SpeedJitterMPH perturbs per-vehicle speeds (default 10).
	SpeedJitterMPH float64
	// BandwidthBudgetBytes caps each vehicle's uplink spend so the
	// budget-remaining gauge is meaningful (default 48 MB).
	BandwidthBudgetBytes float64
	// EventCapacity bounds each flight-recorder lane (default 4096).
	EventCapacity int
}

func (c ObsConfig) withDefaults() ObsConfig {
	if c.Replications == 0 {
		c.Replications = 4
	}
	if c.Vehicles == 0 {
		c.Vehicles = 8
	}
	if c.RSUs == 0 {
		c.RSUs = 2
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.Epoch == 0 {
		c.Epoch = 400 * time.Millisecond
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = obs.DefaultSampleInterval
	}
	if c.SpeedJitterMPH == 0 {
		c.SpeedJitterMPH = 10
	}
	if c.BandwidthBudgetBytes == 0 {
		c.BandwidthBudgetBytes = 48e6
	}
	if c.EventCapacity == 0 {
		c.EventCapacity = 4096
	}
	return c
}

// ObsRoundHealth is one round's fleet health gauges, aggregated over all
// replications.
type ObsRoundHealth struct {
	Round        int     `json:"round"`
	Invocations  int     `json:"invocations"`
	DeadlineHits int     `json:"deadlineHits"`
	HitRate      float64 `json:"hitRate"`
	Failures     int     `json:"failures"`
	Fallbacks    int     `json:"fallbacks"`
	Degraded     int     `json:"degraded"`
	// QueueDepthSec is the committed-but-unfinished site work at round end,
	// in seconds of virtual execution time, averaged over replications.
	QueueDepthSec float64 `json:"queueDepthSec"`
	// BudgetRemaining is the mean fraction of each vehicle's uplink
	// bandwidth budget still unspent at round end.
	BudgetRemaining float64 `json:"budgetRemaining"`
}

// ObsResult is the deterministic merge of the whole experiment.
type ObsResult struct {
	Config ObsConfig
	Rounds []ObsRoundHealth
	// Obs holds the merged registry, sampled series and event log.
	Obs obs.Scope
	// FaultEvents is the total planned fault transitions across worlds.
	FaultEvents int
}

// obsRep is one replication's contribution.
type obsRep struct {
	Rounds      []ObsRoundHealth
	Obs         obs.Scope // the world's sampled series and merged event log
	FaultEvents int
}

// RunObs is E17: a faulted, resilience-enabled fleet run with the full
// observability stack on — per-lane metric sampling into time-series,
// flight-recorder events from breakers, the resilience ladder, outage
// windows and commit phases, and per-round health gauges. The merged
// series and event log are byte-identical for any Shards or Parallel
// value, which `make determinism` exploits.
func RunObs(cfg ObsConfig) (*ObsResult, error) {
	cfg = cfg.withDefaults()
	rep, err := runner.Run(runner.Config{
		Replications: cfg.Replications,
		Parallel:     cfg.Parallel,
		Seed:         cfg.Seed,
	}, func(sh *runner.Shard) (obsRep, error) {
		pol := offload.DefaultPolicy()
		f, err := fleet.New(fleet.Config{
			Vehicles:       cfg.Vehicles,
			RSUs:           cfg.RSUs,
			Shards:         cfg.Shards,
			SpeedJitterMPH: cfg.SpeedJitterMPH,
			RNG:            sh.RNG,
			Faults:         obsFaults(cfg),
			Resilience:     &pol,
		})
		if err != nil {
			return obsRep{}, err
		}
		f.InstrumentSharded(false)
		f.EnableFlightRecorder(cfg.EventCapacity)
		for _, v := range f.Vehicles() {
			v.Engine.SetBandwidthBudget(cfg.BandwidthBudgetBytes)
		}
		store := obs.NewSeriesStore(0)
		sp := obs.NewSampler(store, cfg.SampleInterval)
		if err := f.WatchTelemetry(sp); err != nil {
			return obsRep{}, err
		}
		// The sampler ticks on a dedicated kernel: fleets schedule fault
		// transitions on their own engine, and the sampler only needs a
		// deterministic virtual clock to ride.
		eng := sim.NewEngine(0)
		if _, err := sp.Start(eng); err != nil {
			return obsRep{}, err
		}

		out := obsRep{FaultEvents: f.Faults().Plan().EventCount()}
		for round := 0; round < cfg.Rounds; round++ {
			now := time.Duration(round) * cfg.Epoch
			rr, err := f.ShardedInvokeAllTolerant("kidnapper-search", now)
			if err != nil {
				return obsRep{}, err
			}
			end := now + cfg.Epoch
			if err := eng.RunUntil(end); err != nil {
				return obsRep{}, err
			}
			h := ObsRoundHealth{
				Round:        round,
				Invocations:  rr.Invocations,
				DeadlineHits: rr.DeadlineHits,
				Failures:     rr.Failures,
				Fallbacks:    rr.Fallbacks,
				Degraded:     rr.Degraded,
			}
			// Queue depth reads right after the commit phase (at the round's
			// invocation time), when this round's work is still queued.
			for _, s := range f.Sites() {
				h.QueueDepthSec += s.PendingWork(now).Seconds()
			}
			var frac float64
			for _, v := range f.Vehicles() {
				remaining, _ := v.Engine.BandwidthRemaining()
				frac += remaining / cfg.BandwidthBudgetBytes
			}
			h.BudgetRemaining = frac / float64(cfg.Vehicles)
			out.Rounds = append(out.Rounds, h)
		}
		f.MergeInto(sh.Obs)
		out.Obs = obs.Scope{Series: store, Events: f.MergedFlightRecorder()}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ObsResult{
		Config: cfg,
		Rounds: make([]ObsRoundHealth, cfg.Rounds),
		Obs: obs.Scope{
			Metrics: rep.Obs.Metrics,
			Series:  obs.NewSeriesStore(0),
			Events:  obs.NewRecorder(cfg.EventCapacity * cfg.Replications),
		},
	}
	// Merge replications in index order: counter series sum pointwise
	// (every world ticks the same schedule), events concatenate in the
	// canonical order.
	for _, r := range rep.Results {
		res.Obs.Merge(r.Obs)
		res.FaultEvents += r.FaultEvents
		for i, h := range r.Rounds {
			agg := &res.Rounds[i]
			agg.Round = i
			agg.Invocations += h.Invocations
			agg.DeadlineHits += h.DeadlineHits
			agg.Failures += h.Failures
			agg.Fallbacks += h.Fallbacks
			agg.Degraded += h.Degraded
			agg.QueueDepthSec += h.QueueDepthSec / float64(cfg.Replications)
			agg.BudgetRemaining += h.BudgetRemaining / float64(cfg.Replications)
		}
	}
	for i := range res.Rounds {
		if res.Rounds[i].Invocations > 0 {
			res.Rounds[i].HitRate = float64(res.Rounds[i].DeadlineHits) / float64(res.Rounds[i].Invocations)
		}
	}
	// Health gauges land in the merged store after the replication merge,
	// so their values aggregate over worlds instead of src-wins per world.
	for i := range res.Rounds {
		at := time.Duration(i+1) * cfg.Epoch
		res.Obs.Series.RecordGauge("fleet.deadline_hit_rate", at, res.Rounds[i].HitRate)
		res.Obs.Series.RecordGauge("fleet.queue_depth_s", at, res.Rounds[i].QueueDepthSec)
		res.Obs.Series.RecordGauge("fleet.budget_remaining", at, res.Rounds[i].BudgetRemaining)
	}
	return res, nil
}

// obsFaults is the experiment's fault plan: one healthy-to-outage cycle
// every few rounds plus link degradation and transient execution faults,
// sized to the run's horizon.
func obsFaults(cfg ObsConfig) *faults.PlanConfig {
	horizon := time.Duration(cfg.Rounds)*cfg.Epoch + 2*time.Second
	return &faults.PlanConfig{
		Horizon:             horizon,
		MeanTimeToOutage:    2500 * time.Millisecond,
		MeanOutage:          600 * time.Millisecond,
		MeanTimeToDegrade:   2 * time.Second,
		MeanDegrade:         800 * time.Millisecond,
		MeanTimeToExecFault: 1500 * time.Millisecond,
		MeanExecFault:       400 * time.Millisecond,
	}
}

// ObsTable renders the per-round health gauges.
func ObsTable(res *ObsResult) *Table {
	t := &Table{
		Title: "E17: flight-recorder run (per-round fleet health)",
		Columns: []string{"Round", "Invocations", "Hit-rate", "Failures",
			"Fallbacks", "Degraded", "Queue depth (s)", "Budget left"},
	}
	for _, h := range res.Rounds {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h.Round), fmt.Sprintf("%d", h.Invocations),
			f2(h.HitRate), fmt.Sprintf("%d", h.Failures),
			fmt.Sprintf("%d", h.Fallbacks), fmt.Sprintf("%d", h.Degraded),
			f2(h.QueueDepthSec), f2(h.BudgetRemaining),
		})
	}
	return t
}

// RunReport is the schema-versioned payload written to RUN_REPORT.json:
// the experiment configuration that shapes the world (but nothing that
// only shapes execution — shard count, parallelism, wall-clock), the
// per-round health gauges, the merged metric series, and the merged
// flight-recorder log.
type RunReport struct {
	Schema       string           `json:"schema"`
	Experiment   string           `json:"experiment"`
	Seed         int64            `json:"seed"`
	Vehicles     int              `json:"vehicles"`
	RSUs         int              `json:"rsus"`
	Rounds       int              `json:"rounds"`
	Replications int              `json:"replications"`
	EpochNs      int64            `json:"epochNs"`
	FaultEvents  int              `json:"faultEvents"`
	RoundHealth  []ObsRoundHealth `json:"roundHealth"`
	Series       obs.Payload      `json:"series"`
	Events       []obs.Event      `json:"events"`
	Dropped      int              `json:"droppedEvents,omitempty"`
}

// BuildRunReport assembles the E17 run report. Everything in it is
// deterministic for a given seed, so the marshalled bytes diff clean
// across shard counts and parallelism levels.
func BuildRunReport(res *ObsResult) *RunReport {
	return &RunReport{
		Schema:       RunReportSchema,
		Experiment:   "obs",
		Seed:         res.Config.Seed,
		Vehicles:     res.Config.Vehicles,
		RSUs:         res.Config.RSUs,
		Rounds:       res.Config.Rounds,
		Replications: res.Config.Replications,
		EpochNs:      int64(res.Config.Epoch),
		FaultEvents:  res.FaultEvents,
		RoundHealth:  res.Rounds,
		Series:       res.Obs.Series.Payload(-1),
		Events:       res.Obs.Events.Events(),
		Dropped:      res.Obs.Events.Dropped(),
	}
}

// Marshal renders the report as indented JSON ready for RUN_REPORT.json.
func (r *RunReport) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
