package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/xedge"
)

// E13's world: sweepVehicles vehicles per fleet contend for sweepRSUs shared
// edge sites over sweepRounds rounds of fleet-wide invocations, speeds
// jittered ±sweepSpeedJitterMPH around 35 MPH so each replication sees a
// different traffic mix. Each edge site starts with 1..sweepMaxBackground
// replication-random background tenant tasks — enough to push some
// replications past an RSU's free executor capacity: the multi-tenant
// occupancy each replication's fleet contends against.
const (
	sweepVehicles       = 8
	sweepRSUs           = 1
	sweepRounds         = 5
	sweepSpeedJitterMPH = 10
	sweepMaxBackground  = 8
)

// SweepRow is one replication's steady-round measurement.
type SweepRow struct {
	Replication  int
	MeanMS       float64
	MaxMS        float64
	OffloadShare float64
	HangUps      int
}

// SweepResult is the deterministic merge of a whole sweep: per-replication
// rows ordered by index, plus the merged telemetry and trace.
type SweepResult struct {
	Rows []SweepRow
	Obs  obs.Scope
}

// RunFleetSweep runs N independent fleet-contention replications over the
// parallel runner (E13). Each replication builds its own world — road,
// RSU/cloud sites, vehicles — with per-vehicle speeds jittered from its
// replication-indexed RNG stream, warms the system for sweepRounds
// invocation rounds, and reports the steady round. Output (rows, merged
// metrics, merged trace) is byte-identical for a given seed at any
// Parallel level.
func RunFleetSweep(cfg runner.Config) (*SweepResult, error) {
	rep, err := runner.Run(cfg, func(sh *runner.Shard) (SweepRow, error) {
		f, err := fleet.New(fleet.Config{
			Vehicles:       sweepVehicles,
			RSUs:           sweepRSUs,
			SpeedJitterMPH: sweepSpeedJitterMPH,
			RNG:            sh.RNG,
		})
		if err != nil {
			return SweepRow{}, err
		}
		f.InstrumentSharded(true)
		// Replication-random multi-tenant occupancy: each edge site starts
		// with a different background queue, drawn from the shard's stream.
		for _, s := range f.Sites() {
			if s.Kind() != xedge.RSU {
				continue
			}
			n := 1 + sh.RNG.Intn(sweepMaxBackground)
			if err := s.Preload(n, hardware.DNNInference, 300); err != nil {
				return SweepRow{}, err
			}
			sh.Obs.Metrics.Add("sweep.background_tasks", float64(n))
		}
		// Aggregate across every round: the replication's occupancy
		// trajectory (background load draining while fleet rounds land on
		// top) is what distinguishes one world from another.
		var total, max time.Duration
		var shareSum float64
		done, hangups := 0, 0
		for round := 0; round < sweepRounds; round++ {
			now := time.Duration(round) * 250 * time.Millisecond
			rr, err := f.ShardedInvokeAll("kidnapper-search", now)
			if err != nil {
				return SweepRow{}, err
			}
			total += rr.Total
			if rr.Max > max {
				max = rr.Max
			}
			shareSum += rr.OffloadShare
			done += rr.Invocations - rr.HangUps
			hangups += rr.HangUps
		}
		f.MergeInto(sh.Obs)
		row := SweepRow{
			Replication:  sh.Index,
			MaxMS:        float64(max) / float64(time.Millisecond),
			OffloadShare: shareSum / sweepRounds,
			HangUps:      hangups,
		}
		if done > 0 {
			row.MeanMS = float64(total) / float64(done) / float64(time.Millisecond)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Rows: rep.Results, Obs: rep.Obs}, nil
}

// FleetSweepTable renders E13: one row per replication plus an aggregate
// line averaging the replication means.
func FleetSweepTable(res *SweepResult) *Table {
	t := &Table{
		Title:   "E13: parallel fleet sweep (per-replication aggregate over all rounds)",
		Columns: []string{"Replication", "Mean (ms)", "Max (ms)", "Offload share", "Hang-ups"},
	}
	var meanSum, maxSum, shareSum float64
	hangups := 0
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Replication), f2(r.MeanMS), f2(r.MaxMS),
			f2(r.OffloadShare), fmt.Sprintf("%d", r.HangUps),
		})
		meanSum += r.MeanMS
		maxSum += r.MaxMS
		shareSum += r.OffloadShare
		hangups += r.HangUps
	}
	if n := float64(len(res.Rows)); n > 0 {
		t.Rows = append(t.Rows, []string{
			"mean", f2(meanSum / n), f2(maxSum / n), f2(shareSum / n),
			fmt.Sprintf("%d", hangups),
		})
	}
	return t
}
