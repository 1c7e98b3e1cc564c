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

// ObsConfig parameterizes RunObs (E17): the replication runner's settings
// plus Shards, the epoch-barrier lane count inside each fleet (zero means
// 2). Output is byte-identical for any Parallel or Shards value.
type ObsConfig struct {
	runner.Config
	Shards int
}

// E17's world: obsVehicles vehicles per fleet over obsRSUs shared edge
// sites, obsRounds rounds of fleet-wide invocations spaced obsEpoch apart,
// speeds jittered ±obsSpeedJitterMPH. Each vehicle's uplink spend is capped
// at obsBandwidthBudgetBytes so the budget-remaining gauge is meaningful,
// and each flight-recorder lane holds obsEventCapacity events.
const (
	obsVehicles             = 8
	obsRSUs                 = 2
	obsRounds               = 8
	obsEpoch                = 400 * time.Millisecond
	obsSpeedJitterMPH       = 10
	obsBandwidthBudgetBytes = 48e6
	obsEventCapacity        = 4096
)

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
	Config runner.Config
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
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	rep, err := runner.Run(cfg.Config, func(sh *runner.Shard) (obsRep, error) {
		pol := offload.DefaultPolicy()
		f, err := fleet.New(fleet.Config{
			Vehicles:       obsVehicles,
			RSUs:           obsRSUs,
			Shards:         cfg.Shards,
			SpeedJitterMPH: obsSpeedJitterMPH,
			RNG:            sh.RNG,
			Faults:         obsFaults(),
			Resilience:     &pol,
		})
		if err != nil {
			return obsRep{}, err
		}
		f.InstrumentSharded(false)
		f.EnableFlightRecorder(obsEventCapacity)
		for _, v := range f.Vehicles() {
			v.Engine.SetBandwidthBudget(obsBandwidthBudgetBytes)
		}
		store := obs.NewSeriesStore(0)
		sp := obs.NewSampler(store, obs.DefaultSampleInterval)
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
		for round := 0; round < obsRounds; round++ {
			now := time.Duration(round) * obsEpoch
			rr, err := f.ShardedInvokeAllTolerant("kidnapper-search", now)
			if err != nil {
				return obsRep{}, err
			}
			end := now + obsEpoch
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
				frac += remaining / obsBandwidthBudgetBytes
			}
			h.BudgetRemaining = frac / obsVehicles
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
		Config: cfg.Config,
		Rounds: make([]ObsRoundHealth, obsRounds),
		Obs: obs.Scope{
			Metrics: rep.Obs.Metrics,
			Series:  obs.NewSeriesStore(0),
			Events:  obs.NewRecorder(obsEventCapacity * cfg.Replications),
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
		at := time.Duration(i+1) * obsEpoch
		res.Obs.Series.RecordGauge("fleet.deadline_hit_rate", at, res.Rounds[i].HitRate)
		res.Obs.Series.RecordGauge("fleet.queue_depth_s", at, res.Rounds[i].QueueDepthSec)
		res.Obs.Series.RecordGauge("fleet.budget_remaining", at, res.Rounds[i].BudgetRemaining)
	}
	return res, nil
}

// obsFaults is the experiment's fault plan: one healthy-to-outage cycle
// every few rounds plus link degradation and transient execution faults,
// sized to the run's horizon.
func obsFaults() *faults.PlanConfig {
	return &faults.PlanConfig{
		Horizon:             obsRounds*obsEpoch + 2*time.Second,
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
		Vehicles:     obsVehicles,
		RSUs:         obsRSUs,
		Rounds:       obsRounds,
		Replications: res.Config.Replications,
		EpochNs:      int64(obsEpoch),
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
