package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// chaosIntensities are E14's fault-plan intensities; each yields a
// policy-off and a policy-on cell.
var chaosIntensities = []float64{0.5, 1, 2}

// ChaosRow aggregates one cell (intensity x policy) over all replications:
// its RoundResult sums every round of every replication.
type ChaosRow struct {
	Intensity  float64
	Resilience bool
	fleet.RoundResult
	// HitRate is the share of all invocations that completed inside the
	// service deadline (hang-ups and outright failures count against it).
	HitRate     float64
	FaultEvents int
}

// RunChaosSweep is E14: e14Chaos fleets under injected chaos — site
// outages, link degradation, transient execution faults — with the offload
// resilience policy (circuit breakers + bounded retry + degradation ladder)
// off vs. on. Cells share cfg and so the seed: each replication index runs
// the identical world and fault plan under both policies — the comparison
// is paired, and the hit-rate gap is attributable to the policy alone.
// Output is byte-identical for a given seed at any Parallel level.
// The report holds one row per cell, in (intensity, policy) order.
func RunChaosSweep(cfg runner.Config) (*runner.Report[ChaosRow], error) {
	res := &runner.Report[ChaosRow]{Obs: obs.Scope{Metrics: telemetry.NewRegistry(), Tracer: trace.New()}}
	for _, intensity := range chaosIntensities {
		for _, resilient := range []bool{false, true} {
			s := e14Chaos
			s.faults, s.resilience = intensity, resilient
			rep, err := runner.Run(cfg, func(sh *runner.Shard) (ChaosRow, error) {
				f, err := s.build(sh.RNG)
				if err != nil {
					return ChaosRow{}, err
				}
				sum, _, err := s.run(f, nil)
				f.MergeInto(sh.Obs)
				return ChaosRow{RoundResult: sum, FaultEvents: f.Faults().Plan().EventCount()}, err
			})
			if err != nil {
				return nil, err
			}
			row := ChaosRow{Intensity: intensity, Resilience: resilient}
			for _, r := range rep.Results {
				addRound(&row.RoundResult, r.RoundResult)
				row.FaultEvents += r.FaultEvents
			}
			row.HitRate = hitRate(row.RoundResult)
			res.Results = append(res.Results, row)
			res.Obs.Merge(rep.Obs)
		}
	}
	return res, nil
}

// hitRate is the share of rr's invocations that met the service deadline.
func hitRate(rr fleet.RoundResult) float64 {
	if rr.Invocations == 0 {
		return 0
	}
	return float64(rr.DeadlineHits) / float64(rr.Invocations)
}

// ChaosTable renders E14: per cell, the deadline hit-rate with the
// resilience policy off vs. on.
func ChaosTable(res *runner.Report[ChaosRow]) *Table {
	return tableOf("E14: chaos sweep (deadline hit-rate, resilience policy off vs. on)",
		[]string{"Intensity", "Policy", "Invocations", "Hit-rate",
			"Failures", "Hang-ups", "Fallbacks", "Degraded", "Fault events"}, res.Results,
		func(r ChaosRow) []string {
			policy := "off"
			if r.Resilience {
				policy = "on"
			}
			return []string{
				f2(r.Intensity), policy, fmt.Sprintf("%d", r.Invocations),
				f2(r.HitRate), fmt.Sprintf("%d", r.Failures),
				fmt.Sprintf("%d", r.HangUps), fmt.Sprintf("%d", r.Fallbacks),
				fmt.Sprintf("%d", r.Degraded), fmt.Sprintf("%d", r.FaultEvents),
			}
		})
}
