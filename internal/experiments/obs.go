package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
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

// Each E17 vehicle's uplink spend is capped at obsBandwidthBudgetBytes so
// the budget-remaining gauge is meaningful, and each flight-recorder lane
// holds obsEventCapacity events.
const (
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

// obsRep is one replication's contribution: per round, the fleet's
// RoundResult, queue depth and budget-remaining gauges.
type obsRep struct {
	Rounds        []fleet.RoundResult
	Queue, Budget []float64
	Obs           obs.Scope // the world's sampled series and merged event log
	FaultEvents   int
}

// RunObs is E17: an e17Obs fleet run with the full observability stack on
// — per-lane metric sampling into time-series, flight-recorder events from
// breakers, the resilience ladder, outage windows and commit phases, and
// per-round health gauges. The merged series and event log are
// byte-identical for any Shards or Parallel value, which `make
// determinism` exploits.
func RunObs(cfg ObsConfig) (*ObsResult, error) {
	s := e17Obs
	if cfg.Shards != 0 {
		s.shards = cfg.Shards
	}
	rep, err := runner.Run(cfg.Config, func(sh *runner.Shard) (obsRep, error) {
		f, err := s.build(sh.RNG)
		if err != nil {
			return obsRep{}, err
		}
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
		_, _, err = s.run(f, func(_ int, now time.Duration, rr fleet.RoundResult) error {
			if err := eng.RunUntil(now + s.spacing); err != nil {
				return err
			}
			// Queue depth reads right after the commit phase (at the round's
			// invocation time), when this round's work is still queued.
			var queue, budget float64
			for _, site := range f.Sites() {
				queue += site.PendingWork(now).Seconds()
			}
			for _, v := range f.Vehicles() {
				remaining, _ := v.Engine.BandwidthRemaining()
				budget += remaining / obsBandwidthBudgetBytes
			}
			out.Rounds = append(out.Rounds, rr)
			out.Queue = append(out.Queue, queue)
			out.Budget = append(out.Budget, budget/float64(s.vehicles))
			return nil
		})
		if err != nil {
			return obsRep{}, err
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
		Obs: obs.Scope{
			Metrics: rep.Obs.Metrics,
			Series:  obs.NewSeriesStore(0),
			Events:  obs.NewRecorder(obsEventCapacity * cfg.Replications),
		},
	}
	// Merge replications in index order: counter series sum pointwise
	// (every world ticks the same schedule), events concatenate in the
	// canonical order.
	sums := make([]fleet.RoundResult, s.rounds)
	queue, budget := make([]float64, s.rounds), make([]float64, s.rounds)
	for _, r := range rep.Results {
		res.Obs.Merge(r.Obs)
		res.FaultEvents += r.FaultEvents
		for i := range sums {
			addRound(&sums[i], r.Rounds[i])
			queue[i] += r.Queue[i] / float64(cfg.Replications)
			budget[i] += r.Budget[i] / float64(cfg.Replications)
		}
	}
	// Health gauges land in the merged store after the replication merge,
	// so their values aggregate over worlds instead of src-wins per world.
	for i, rr := range sums {
		h := ObsRoundHealth{
			Round: i, Invocations: rr.Invocations, DeadlineHits: rr.DeadlineHits, HitRate: hitRate(rr),
			Failures: rr.Failures, Fallbacks: rr.Fallbacks, Degraded: rr.Degraded,
			QueueDepthSec: queue[i], BudgetRemaining: budget[i],
		}
		res.Rounds = append(res.Rounds, h)
		at := time.Duration(i+1) * s.spacing
		res.Obs.Series.RecordGauge("fleet.deadline_hit_rate", at, h.HitRate)
		res.Obs.Series.RecordGauge("fleet.queue_depth_s", at, h.QueueDepthSec)
		res.Obs.Series.RecordGauge("fleet.budget_remaining", at, h.BudgetRemaining)
	}
	return res, nil
}

// ObsTable renders the per-round health gauges.
func ObsTable(res *ObsResult) *Table {
	return tableOf("E17: flight-recorder run (per-round fleet health)",
		[]string{"Round", "Invocations", "Hit-rate", "Failures",
			"Fallbacks", "Degraded", "Queue depth (s)", "Budget left"}, res.Rounds,
		func(h ObsRoundHealth) []string {
			return []string{
				fmt.Sprintf("%d", h.Round), fmt.Sprintf("%d", h.Invocations),
				f2(h.HitRate), fmt.Sprintf("%d", h.Failures),
				fmt.Sprintf("%d", h.Fallbacks), fmt.Sprintf("%d", h.Degraded),
				f2(h.QueueDepthSec), f2(h.BudgetRemaining),
			}
		})
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
		Vehicles:     e17Obs.vehicles,
		RSUs:         e17Obs.rsus,
		Rounds:       e17Obs.rounds,
		Replications: res.Config.Replications,
		EpochNs:      int64(e17Obs.spacing),
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
