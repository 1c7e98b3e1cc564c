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

// SweepConfig parameterizes RunFleetSweep (E13).
type SweepConfig struct {
	// Replications is how many independent fleet worlds to run (default 8).
	Replications int
	// Parallel is the worker-pool size (non-positive: GOMAXPROCS).
	Parallel int
	// Seed keys every replication's random substream.
	Seed int64
	// Vehicles per fleet (default 8) contending for RSUs shared edge sites
	// (default 1).
	Vehicles int
	RSUs     int
	// Rounds of fleet-wide invocations per replication (default 5).
	Rounds int
	// SpeedJitterMPH perturbs per-vehicle speeds around 35 MPH so each
	// replication sees a different traffic mix (default 10).
	SpeedJitterMPH float64
	// MaxBackgroundTasks bounds the replication-random background tenant
	// load preloaded onto each edge site (default 8, enough to push some
	// replications past an RSU's free executor capacity): the multi-tenant
	// occupancy each replication's fleet contends against.
	MaxBackgroundTasks int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Replications == 0 {
		c.Replications = 8
	}
	if c.Vehicles == 0 {
		c.Vehicles = 8
	}
	if c.RSUs == 0 {
		c.RSUs = 1
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.SpeedJitterMPH == 0 {
		c.SpeedJitterMPH = 10
	}
	if c.MaxBackgroundTasks == 0 {
		c.MaxBackgroundTasks = 8
	}
	return c
}

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
// replication-indexed RNG stream, warms the system for cfg.Rounds
// invocation rounds, and reports the steady round. Output (rows, merged
// metrics, merged trace) is byte-identical for a given seed at any
// Parallel level.
func RunFleetSweep(cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	rep, err := runner.Run(runner.Config{
		Replications: cfg.Replications,
		Parallel:     cfg.Parallel,
		Seed:         cfg.Seed,
	}, func(sh *runner.Shard) (SweepRow, error) {
		f, err := fleet.New(fleet.Config{
			Vehicles:       cfg.Vehicles,
			RSUs:           cfg.RSUs,
			SpeedJitterMPH: cfg.SpeedJitterMPH,
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
			n := 1 + sh.RNG.Intn(cfg.MaxBackgroundTasks)
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
		for round := 0; round < cfg.Rounds; round++ {
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
			OffloadShare: shareSum / float64(cfg.Rounds),
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
