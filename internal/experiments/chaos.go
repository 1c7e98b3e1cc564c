package experiments

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ChaosConfig parameterizes RunChaosSweep (E14).
type ChaosConfig struct {
	// Replications is how many independent fleet worlds per cell (default 6).
	Replications int
	// Parallel is the worker-pool size (non-positive: GOMAXPROCS).
	Parallel int
	// Seed keys every replication's random substream. All cells share the
	// seed, so a given replication index sees the identical world and fault
	// plan with the policy on and off — the comparison is paired.
	Seed int64
	// Vehicles per fleet (default 6) over RSUs shared edge sites (default 2).
	Vehicles int
	RSUs     int
	// Rounds of fleet-wide invocations per replication at 250 ms spacing
	// (default 8).
	Rounds int
	// SpeedJitterMPH perturbs per-vehicle speeds (default 10).
	SpeedJitterMPH float64
	// Intensities are outage-rate multipliers; each yields a policy-off and
	// a policy-on cell (default 0.5, 1, 2).
	Intensities []float64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Replications == 0 {
		c.Replications = 6
	}
	if c.Vehicles == 0 {
		c.Vehicles = 6
	}
	if c.RSUs == 0 {
		c.RSUs = 2
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.SpeedJitterMPH == 0 {
		c.SpeedJitterMPH = 10
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0.5, 1, 2}
	}
	return c
}

// chaosFaults scales the base fault rates by the cell's intensity: higher
// intensity shortens the healthy gaps between outages, degradation windows,
// and transient execution faults.
func chaosFaults(cfg ChaosConfig, intensity float64) *faults.PlanConfig {
	horizon := time.Duration(cfg.Rounds)*250*time.Millisecond + 2*time.Second
	return &faults.PlanConfig{
		Horizon:             horizon,
		MeanTimeToOutage:    time.Duration(float64(2500*time.Millisecond) / intensity),
		MeanOutage:          600 * time.Millisecond,
		MeanTimeToDegrade:   time.Duration(float64(2*time.Second) / intensity),
		MeanDegrade:         800 * time.Millisecond,
		MeanTimeToExecFault: time.Duration(float64(1500*time.Millisecond) / intensity),
		MeanExecFault:       400 * time.Millisecond,
	}
}

// ChaosRow aggregates one cell (intensity x policy) over all replications.
type ChaosRow struct {
	Intensity   float64
	Resilience  bool
	Invocations int
	// DeadlineHits counts completed invocations inside the service deadline;
	// HitRate is their share of all invocations (hang-ups and outright
	// failures count against it).
	DeadlineHits int
	HitRate      float64
	Failures     int
	HangUps      int
	Fallbacks    int
	Degraded     int
	FaultEvents  int
}

// ChaosResult is the deterministic merge of the whole sweep.
type ChaosResult struct {
	Rows []ChaosRow
	Obs  obs.Scope
}

// chaosRep is one replication's contribution to a cell.
type chaosRep struct {
	Invocations  int
	DeadlineHits int
	Failures     int
	HangUps      int
	Fallbacks    int
	Degraded     int
	FaultEvents  int
}

// RunChaosSweep is E14: fleets under injected chaos — site outages, link
// degradation, transient execution faults — with the offload resilience
// policy (circuit breakers + bounded retry + degradation ladder) off vs. on.
// Cells share the seed, so each replication index runs the identical world
// and fault plan under both policies; the hit-rate gap is attributable to
// the policy alone. Output is byte-identical for a given seed at any
// Parallel level.
func RunChaosSweep(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	res := &ChaosResult{Obs: obs.Scope{Metrics: telemetry.NewRegistry(), Tracer: trace.New()}}
	for _, intensity := range cfg.Intensities {
		for _, resilient := range []bool{false, true} {
			intensity, resilient := intensity, resilient
			rep, err := runner.Run(runner.Config{
				Replications: cfg.Replications,
				Parallel:     cfg.Parallel,
				Seed:         cfg.Seed,
			}, func(sh *runner.Shard) (chaosRep, error) {
				fcfg := fleet.Config{
					Vehicles:       cfg.Vehicles,
					RSUs:           cfg.RSUs,
					SpeedJitterMPH: cfg.SpeedJitterMPH,
					RNG:            sh.RNG,
					Faults:         chaosFaults(cfg, intensity),
				}
				if resilient {
					pol := offload.DefaultPolicy()
					fcfg.Resilience = &pol
				}
				f, err := fleet.New(fcfg)
				if err != nil {
					return chaosRep{}, err
				}
				f.InstrumentSharded(true)
				var out chaosRep
				out.FaultEvents = f.Faults().Plan().EventCount()
				for round := 0; round < cfg.Rounds; round++ {
					now := time.Duration(round) * 250 * time.Millisecond
					rr, err := f.ShardedInvokeAllTolerant("kidnapper-search", now)
					if err != nil {
						return chaosRep{}, err
					}
					out.Invocations += rr.Invocations
					out.DeadlineHits += rr.DeadlineHits
					out.Failures += rr.Failures
					out.HangUps += rr.HangUps
					out.Fallbacks += rr.Fallbacks
					out.Degraded += rr.Degraded
				}
				f.MergeInto(sh.Obs)
				return out, nil
			})
			if err != nil {
				return nil, err
			}
			row := ChaosRow{Intensity: intensity, Resilience: resilient}
			for _, r := range rep.Results {
				row.Invocations += r.Invocations
				row.DeadlineHits += r.DeadlineHits
				row.Failures += r.Failures
				row.HangUps += r.HangUps
				row.Fallbacks += r.Fallbacks
				row.Degraded += r.Degraded
				row.FaultEvents += r.FaultEvents
			}
			if row.Invocations > 0 {
				row.HitRate = float64(row.DeadlineHits) / float64(row.Invocations)
			}
			res.Rows = append(res.Rows, row)
			res.Obs.Merge(rep.Obs)
		}
	}
	return res, nil
}

// ChaosTable renders E14: per cell, the deadline hit-rate with the
// resilience policy off vs. on.
func ChaosTable(res *ChaosResult) *Table {
	t := &Table{
		Title: "E14: chaos sweep (deadline hit-rate, resilience policy off vs. on)",
		Columns: []string{"Intensity", "Policy", "Invocations", "Hit-rate",
			"Failures", "Hang-ups", "Fallbacks", "Degraded", "Fault events"},
	}
	for _, r := range res.Rows {
		policy := "off"
		if r.Resilience {
			policy = "on"
		}
		t.Rows = append(t.Rows, []string{
			f2(r.Intensity), policy, fmt.Sprintf("%d", r.Invocations),
			f2(r.HitRate), fmt.Sprintf("%d", r.Failures),
			fmt.Sprintf("%d", r.HangUps), fmt.Sprintf("%d", r.Fallbacks),
			fmt.Sprintf("%d", r.Degraded), fmt.Sprintf("%d", r.FaultEvents),
		})
	}
	return t
}

// CompileChaosPlan compiles E19's network fault plan, the one `-exp
// netchaos` prints and the paired resilience test runs both of its modes
// under: 45% of connections carry an RST byte budget and 45% a clean
// truncation budget (independently, so ~70% carry at least one), budgets
// small enough that such a connection dies within a handful of responses;
// latency on a fifth, and occasional accept stalls. The plan is
// byte-identical at any parallel level — `make determinism` diffs it.
func CompileChaosPlan(seed int64, parallel int) (*faults.NetPlan, error) {
	cfg := faults.DefaultNetChaos(seed, 4096)
	cfg.ResetMinBytes = 1 << 9
	cfg.ResetMaxBytes = 8 << 10
	cfg.TruncateMinBytes = 1 << 9
	cfg.TruncateMaxBytes = 6 << 10
	return faults.CompileNetPlan(cfg, parallel)
}
