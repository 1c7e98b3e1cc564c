package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// E16: fleet scaling sweep. The epoch-barrier sharded executor
// (fleet.ShardedInvokeAll) promises two things at once: simulation output
// that is byte-identical for any shard count, and a decision phase that
// spreads across cores. This experiment measures both — a deterministic
// per-fleet-size results table (the half `make determinism` diffs between
// -shards 1 and -shards 4 runs), and a wall-clock throughput table
// (rounds/sec, speedup vs the first shard count) for stderr; the tracked
// wall-clock numbers live in benchmark/. Speedup scales with available
// cores: a single-core runner can only demonstrate ~1.0x while proving
// determinism; the decision phase's parallel share is what multi-core
// runners harvest. The commit phase is one serial loop (see
// fleet/sharded.go).

// ScaleConfig parameterizes RunScale.
type ScaleConfig struct {
	// Vehicles lists the fleet sizes to sweep (default 100, 1000, 10000).
	Vehicles []int
	// Shards lists the shard counts per fleet size (default 1, 2, 4, 8).
	// The first entry is the speedup baseline; include 1 first for the
	// canonical single-shard reference.
	Shards []int
	// Rounds is the number of epoch-barrier rounds per cell (default 4).
	Rounds int
	// Epoch spaces the rounds in virtual time (default 250ms).
	Epoch time.Duration
	// Seed keys every fleet's RNG stream.
	Seed int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Vehicles) == 0 {
		c.Vehicles = []int{100, 1000, 10000}
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.Epoch <= 0 {
		c.Epoch = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ScaleSimRow is the deterministic half of one fleet-size cell: pure
// simulation results plus a digest over every round and the merged
// telemetry. RunScale verifies the row is identical for every shard
// count before reporting it once.
type ScaleSimRow struct {
	Vehicles     int
	Invocations  int
	HangUps      int
	MeanMS       float64
	MaxMS        float64
	OffloadShare float64
	Digest       string
}

// ScaleTimingRow is the wall-clock half of one (vehicles, shards) cell.
// Nothing here feeds back into simulation state; it is reporting only.
type ScaleTimingRow struct {
	Vehicles     int
	Shards       int
	Rounds       int
	Elapsed      time.Duration
	RoundsPerSec float64
	InvocPerSec  float64
	// Speedup is rounds/sec over the baseline (first configured shard
	// count, canonically 1) at the same fleet size.
	Speedup float64
}

// ScaleResult is the E16 report.
type ScaleResult struct {
	Config ScaleConfig
	Sim    []ScaleSimRow
	Timing []ScaleTimingRow
}

// scaleFleetConfig builds one sweep cell's fleet: jittered speeds
// (consuming the seeded stream) and the default kidnapper-search service
// over a 16-RSU corridor with disjoint coverage disks (1250 m spacing,
// 600 m radius), so offload load spreads along the corridor instead of
// every vehicle contending for every RSU.
func scaleFleetConfig(vehicles, shards int, seed int64) fleet.Config {
	return fleet.Config{
		Vehicles:       vehicles,
		RSUs:           16,
		RSURadiusM:     600,
		SpeedJitterMPH: 10,
		RNG:            sim.NewStream(seed, 0),
		Shards:         shards,
	}
}

// runScaleCell runs one (vehicles, shards) cell and returns its sim row
// (digest included) and the machine-dependent wall clock of its rounds.
func runScaleCell(cfg ScaleConfig, vehicles, shards int) (ScaleSimRow, time.Duration, error) {
	f, err := fleet.New(scaleFleetConfig(vehicles, shards, cfg.Seed))
	if err != nil {
		return ScaleSimRow{}, 0, err
	}
	f.InstrumentSharded(false)
	h := fnv.New64a()
	row := ScaleSimRow{Vehicles: vehicles}
	var total, max time.Duration
	var offload float64
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		rr, err := f.ShardedInvokeAll("kidnapper-search", time.Duration(r)*cfg.Epoch)
		if err != nil {
			return ScaleSimRow{}, 0, fmt.Errorf("scale: v=%d s=%d round %d: %w", vehicles, shards, r, err)
		}
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%.9f|%d|%d|%d\n",
			r, rr.Invocations, rr.HangUps, rr.Total, rr.Max, rr.OffloadShare,
			rr.DeadlineHits, rr.Fallbacks, rr.Degraded)
		row.Invocations += rr.Invocations
		row.HangUps += rr.HangUps
		total += rr.Total
		if rr.Max > max {
			max = rr.Max
		}
		offload = rr.OffloadShare
	}
	elapsed := time.Since(start)
	reg, _ := f.MergedTelemetry()
	fmt.Fprint(h, reg.Render())
	if done := row.Invocations - row.HangUps; done > 0 {
		row.MeanMS = float64(total.Microseconds()) / float64(done) / 1000
	}
	row.MaxMS = float64(max.Microseconds()) / 1000
	row.OffloadShare = offload
	row.Digest = fmt.Sprintf("%016x", h.Sum64())
	return row, elapsed, nil
}

// RunScale executes the E16 sweep: every fleet size at every shard
// count. It fails loudly if any shard count changes the simulation digest
// — the determinism contract is asserted in-process on top of the
// external report diff in `make determinism`.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{Config: cfg}
	for _, v := range cfg.Vehicles {
		if v < 1 {
			return nil, fmt.Errorf("scale: fleet size %d", v)
		}
		var baseRPS float64
		for si, s := range cfg.Shards {
			row, elapsed, err := runScaleCell(cfg, v, s)
			if err != nil {
				return nil, err
			}
			if si == 0 {
				res.Sim = append(res.Sim, row)
			} else if prev := res.Sim[len(res.Sim)-1]; row != prev {
				return nil, fmt.Errorf(
					"scale: determinism violation at %d vehicles: shards=%d digest %s != shards=%d digest %s",
					v, s, row.Digest, cfg.Shards[0], prev.Digest)
			}
			rps := float64(cfg.Rounds) / elapsed.Seconds()
			if si == 0 {
				baseRPS = rps
			}
			res.Timing = append(res.Timing, ScaleTimingRow{
				Vehicles:     v,
				Shards:       s,
				Rounds:       cfg.Rounds,
				Elapsed:      elapsed,
				RoundsPerSec: rps,
				InvocPerSec:  float64(row.Invocations) / elapsed.Seconds(),
				Speedup:      rps / baseRPS,
			})
		}
	}
	return res, nil
}

// ScaleTable renders the deterministic half of the report: identical for
// every shard count and every worker layout, so CI diffs it across
// -shards values.
func ScaleTable(res *ScaleResult) string {
	t := &Table{
		Title:   "E16: sharded fleet scaling (deterministic simulation results; identical for every shard count)",
		Columns: []string{"vehicles", "invocations", "hangups", "mean ms", "max ms", "offload", "digest"},
	}
	for _, r := range res.Sim {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Vehicles),
			fmt.Sprintf("%d", r.Invocations),
			fmt.Sprintf("%d", r.HangUps),
			f2(r.MeanMS),
			f2(r.MaxMS),
			f2(r.OffloadShare),
			r.Digest,
		})
	}
	return t.String()
}

// ScaleTimingTable renders the wall-clock half (machine-dependent; keep
// it out of determinism diffs).
func ScaleTimingTable(res *ScaleResult) string {
	t := &Table{
		Title:   "E16: sharded fleet throughput (wall clock; speedup vs first shard count, scales with cores)",
		Columns: []string{"vehicles", "shards", "rounds", "elapsed", "rounds/s", "invoc/s", "speedup"},
	}
	for _, r := range res.Timing {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Vehicles),
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Rounds),
			r.Elapsed.Round(time.Millisecond).String(),
			f2(r.RoundsPerSec),
			f2(r.InvocPerSec),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return t.String()
}
