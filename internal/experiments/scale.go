package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// E16: shard-count determinism digest. The epoch-barrier sharded executor
// (fleet.ShardedInvokeAll) promises simulation output that is
// byte-identical for any shard count. This experiment checks that promise
// over a sweep of fleet sizes: one deterministic results row per size,
// digest included, asserted equal across the configured shard counts
// in-process and diffed between -shards 1 and -shards 4 runs by `make
// determinism`. What sharding buys in wall clock is benchmark/'s to measure
// (fleet.shard_speedup, fleet.decision_share).

// ScaleConfig parameterizes RunScale.
type ScaleConfig struct {
	// Vehicles lists the fleet sizes to sweep (default 100, 1000, 10000).
	Vehicles []int
	// Shards lists the shard counts per fleet size (default 1, 2, 4, 8);
	// every one must reproduce the first one's row.
	Shards []int
	// Seed keys every fleet's RNG stream.
	Seed int64
}

// Every cell runs scaleRounds epoch-barrier rounds, scaleEpoch apart in
// virtual time.
const (
	scaleRounds = 4
	scaleEpoch  = 250 * time.Millisecond
)

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Vehicles) == 0 {
		c.Vehicles = []int{100, 1000, 10000}
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ScaleSimRow is one fleet-size cell: pure simulation results plus a
// digest over every round and the merged telemetry. RunScale verifies the
// row is identical for every shard count before reporting it once.
type ScaleSimRow struct {
	Vehicles     int
	Invocations  int
	HangUps      int
	MeanMS       float64
	MaxMS        float64
	OffloadShare float64
	Digest       string
}

// ScaleResult is the E16 report.
type ScaleResult struct {
	Config ScaleConfig
	Sim    []ScaleSimRow
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

// runScaleCell runs one (vehicles, shards) cell and returns its sim row,
// digest included.
func runScaleCell(seed int64, vehicles, shards int) (ScaleSimRow, error) {
	f, err := fleet.New(scaleFleetConfig(vehicles, shards, seed))
	if err != nil {
		return ScaleSimRow{}, err
	}
	f.InstrumentSharded(false)
	h := fnv.New64a()
	row := ScaleSimRow{Vehicles: vehicles}
	var total, max time.Duration
	var offload float64
	for r := 0; r < scaleRounds; r++ {
		rr, err := f.ShardedInvokeAll("kidnapper-search", time.Duration(r)*scaleEpoch)
		if err != nil {
			return ScaleSimRow{}, fmt.Errorf("scale: v=%d s=%d round %d: %w", vehicles, shards, r, err)
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
	reg, _ := f.MergedTelemetry()
	fmt.Fprint(h, reg.Render())
	if done := row.Invocations - row.HangUps; done > 0 {
		row.MeanMS = float64(total.Microseconds()) / float64(done) / 1000
	}
	row.MaxMS = float64(max.Microseconds()) / 1000
	row.OffloadShare = offload
	row.Digest = fmt.Sprintf("%016x", h.Sum64())
	return row, nil
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
		for si, s := range cfg.Shards {
			row, err := runScaleCell(cfg.Seed, v, s)
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
		}
	}
	return res, nil
}

// ScaleTable renders the report: identical for every shard count and every
// worker layout, so CI diffs it across -shards values.
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
