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

// E14's world: chaosVehicles vehicles per fleet over chaosRSUs shared edge
// sites, chaosRounds rounds of fleet-wide invocations at 250 ms spacing,
// speeds jittered ±chaosSpeedJitterMPH. chaosIntensities are outage-rate
// multipliers; each yields a policy-off and a policy-on cell.
const (
	chaosVehicles       = 6
	chaosRSUs           = 2
	chaosRounds         = 8
	chaosSpeedJitterMPH = 10
)

var chaosIntensities = []float64{0.5, 1, 2}

// chaosFaults scales the base fault rates by the cell's intensity: higher
// intensity shortens the healthy gaps between outages, degradation windows,
// and transient execution faults.
func chaosFaults(intensity float64) *faults.PlanConfig {
	return &faults.PlanConfig{
		Horizon:             chaosRounds*250*time.Millisecond + 2*time.Second,
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
// Cells share cfg and so the seed: each replication index runs the identical
// world and fault plan under both policies — the comparison is paired, and
// the hit-rate gap is attributable to the policy alone. Output is
// byte-identical for a given seed at any Parallel level.
func RunChaosSweep(cfg runner.Config) (*ChaosResult, error) {
	res := &ChaosResult{Obs: obs.Scope{Metrics: telemetry.NewRegistry(), Tracer: trace.New()}}
	for _, intensity := range chaosIntensities {
		for _, resilient := range []bool{false, true} {
			intensity, resilient := intensity, resilient
			rep, err := runner.Run(cfg, func(sh *runner.Shard) (chaosRep, error) {
				fcfg := fleet.Config{
					Vehicles:       chaosVehicles,
					RSUs:           chaosRSUs,
					SpeedJitterMPH: chaosSpeedJitterMPH,
					RNG:            sh.RNG,
					Faults:         chaosFaults(intensity),
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
				for round := 0; round < chaosRounds; round++ {
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
	return faults.CompileNetPlan(faults.NetChaosConfig{
		Seed:             seed,
		Conns:            4096,
		ResetMinBytes:    1 << 9,
		ResetMaxBytes:    8 << 10,
		TruncateMinBytes: 1 << 9,
		TruncateMaxBytes: 6 << 10,
	}, parallel)
}
