package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/xedge"
)

// fleetScenario is one fleet experiment's world and schedule: E12, E13,
// E14, E16 and E17 are rows of it (below), and build and run are the only
// place a fleet is made and driven. An experiment copies its row, sets what
// it sweeps, and keeps only what it reads off the rounds.
type fleetScenario struct {
	vehicles, rsus int
	// rsuRadiusM narrows the RSU coverage disks (zero: each covers the
	// whole corridor).
	rsuRadiusM float64
	jitterMPH  float64
	shards     int
	// Round r invokes the kidnapper-search service on every vehicle at
	// virtual time r*spacing, for r in [0, rounds).
	rounds  int
	spacing time.Duration
	// faults is the fault-plan intensity (see faultPlan); zero is a
	// fault-free world.
	faults     float64
	resilience bool
	// trace gives every telemetry lane a tracer too.
	trace bool
}

// The five fleet scenarios. E12 and E16 sweep vehicles (E16 shards too),
// E14 sweeps faults and resilience, E17 takes its shard count from the
// caller.
var (
	e12Contention = fleetScenario{rsus: 1, rounds: 5}
	e13Sweep      = fleetScenario{vehicles: 8, rsus: 1, jitterMPH: 10, rounds: 5, spacing: 250 * time.Millisecond, trace: true}
	e14Chaos      = fleetScenario{vehicles: 6, rsus: 2, jitterMPH: 10, rounds: 8, spacing: 250 * time.Millisecond, trace: true}
	e16Scale      = fleetScenario{rsus: 16, rsuRadiusM: 600, jitterMPH: 10, rounds: 4, spacing: 250 * time.Millisecond}
	e17Obs        = fleetScenario{vehicles: 8, rsus: 2, jitterMPH: 10, shards: 2, rounds: 8, spacing: 400 * time.Millisecond, faults: 1, resilience: true}
)

// build makes the scenario's fleet from rng (nil: the fleet's fixed
// stream) with its telemetry lanes instrumented.
func (s fleetScenario) build(rng *sim.RNG) (*fleet.Fleet, error) {
	cfg := fleet.Config{
		Vehicles:       s.vehicles,
		RSUs:           s.rsus,
		RSURadiusM:     s.rsuRadiusM,
		SpeedJitterMPH: s.jitterMPH,
		RNG:            rng,
		Shards:         s.shards,
	}
	if s.faults > 0 {
		cfg.Faults = faultPlan(time.Duration(s.rounds)*s.spacing+2*time.Second, s.faults)
	}
	if s.resilience {
		pol := offload.DefaultPolicy()
		cfg.Resilience = &pol
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	f.InstrumentSharded(s.trace)
	return f, nil
}

// run drives f through the scenario's rounds, tolerating vehicle errors in
// a faulted world, and hands each round to each (when not nil). It returns
// the rounds folded by addRound, and the last round.
func (s fleetScenario) run(f *fleet.Fleet, each func(round int, now time.Duration, rr fleet.RoundResult) error) (sum, last fleet.RoundResult, err error) {
	invoke := f.ShardedInvokeAll
	if s.faults > 0 {
		invoke = f.ShardedInvokeAllTolerant
	}
	for r := 0; r < s.rounds; r++ {
		now := time.Duration(r) * s.spacing
		if last, err = invoke("kidnapper-search", now); err == nil && each != nil {
			err = each(r, now, last)
		}
		if err != nil {
			return sum, last, fmt.Errorf("round %d: %w", r, err)
		}
		addRound(&sum, last)
	}
	return sum, last, nil
}

// faultPlan is the fleet fault plan over horizon: site outages, link
// degradation and transient execution faults, with the healthy gaps
// between them divided by intensity.
func faultPlan(horizon time.Duration, intensity float64) *faults.PlanConfig {
	gap := func(d time.Duration) time.Duration { return time.Duration(float64(d) / intensity) }
	return &faults.PlanConfig{
		Horizon:             horizon,
		MeanTimeToOutage:    gap(2500 * time.Millisecond),
		MeanOutage:          600 * time.Millisecond,
		MeanTimeToDegrade:   gap(2 * time.Second),
		MeanDegrade:         800 * time.Millisecond,
		MeanTimeToExecFault: gap(1500 * time.Millisecond),
		MeanExecFault:       400 * time.Millisecond,
	}
}

// addRound folds rr into sum: counters and Total add up, Max is the
// largest, and OffloadShare adds up too (divide by the rounds for a mean).
func addRound(sum *fleet.RoundResult, rr fleet.RoundResult) {
	sum.Invocations += rr.Invocations
	sum.HangUps += rr.HangUps
	sum.Total += rr.Total
	sum.Max = max(sum.Max, rr.Max)
	sum.OffloadShare += rr.OffloadShare
	sum.Failures += rr.Failures
	sum.DeadlineHits += rr.DeadlineHits
	sum.Fallbacks += rr.Fallbacks
	sum.Degraded += rr.Degraded
}

// FleetRow is one row of E12 (a fleet size's steady round), E13 (one
// replication over all rounds) or E16 (a fleet size over all rounds, with
// the digest).
type FleetRow struct {
	Vehicles     int
	Replication  int
	Invocations  int
	HangUps      int
	MeanMS       float64
	MaxMS        float64
	OffloadShare float64
	Digest       string
}

func fleetRow(vehicles int, rr fleet.RoundResult) FleetRow {
	return FleetRow{
		Vehicles:     vehicles,
		Invocations:  rr.Invocations,
		HangUps:      rr.HangUps,
		MeanMS:       float64(rr.Mean()) / float64(time.Millisecond),
		MaxMS:        float64(rr.Max) / float64(time.Millisecond),
		OffloadShare: rr.OffloadShare,
	}
}

// tableOf renders one row of cells per element of rows.
func tableOf[R any](title string, columns []string, rows []R, cells func(R) []string) *Table {
	t := &Table{Title: title, Columns: columns}
	for _, r := range rows {
		t.Rows = append(t.Rows, cells(r))
	}
	return t
}

// fleetCells renders an E12 or E13 row under its key column.
func fleetCells(key int, r FleetRow) []string {
	return []string{fmt.Sprintf("%d", key), f2(r.MeanMS), f2(r.MaxMS), f2(r.OffloadShare), fmt.Sprintf("%d", r.HangUps)}
}

// RunFleetContention grows an e12Contention fleet over one shared RSU and
// measures per-vehicle service latency and offload share (E12): elastic
// management must route around the saturating edge instead of queueing on
// it. Every round runs at t=0 (maximal simultaneous contention); the last
// one is the steady round reported.
func RunFleetContention() ([]FleetRow, error) {
	var rows []FleetRow
	for _, n := range []int{1, 2, 4, 8, 16} {
		s := e12Contention
		s.vehicles = n
		f, err := s.build(nil)
		if err != nil {
			return nil, err
		}
		_, last, err := s.run(f, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fleetRow(n, last))
	}
	return rows, nil
}

// FleetTable renders E12.
func FleetTable(rows []FleetRow) *Table {
	return tableOf("E12: fleet contention on one shared RSU (steady round)",
		[]string{"Vehicles", "Mean (ms)", "Max (ms)", "Offload share", "Hang-ups"}, rows,
		func(r FleetRow) []string { return fleetCells(r.Vehicles, r) })
}

// RunFleetSweep runs N independent e13Sweep replications over the parallel
// runner (E13). Each replication builds its own world — road, RSU/cloud
// sites, vehicles — with per-vehicle speeds jittered from its
// replication-indexed RNG stream and 1..8 replication-random background
// tenant tasks preloaded on each RSU (enough to push some replications
// past its free executor capacity), and reports the aggregate over every
// round: the occupancy trajectory (background load draining while fleet
// rounds land on top) is what tells one world from another. Output (rows,
// merged metrics, merged trace) is byte-identical for a given seed at any
// Parallel level.
func RunFleetSweep(cfg runner.Config) (*runner.Report[FleetRow], error) {
	s := e13Sweep
	return runner.Run(cfg, func(sh *runner.Shard) (FleetRow, error) {
		f, err := s.build(sh.RNG)
		if err != nil {
			return FleetRow{}, err
		}
		background := sh.Obs.Metrics.CounterHandle("sweep.background_tasks")
		for _, site := range f.Sites() {
			if site.Kind() != xedge.RSU {
				continue
			}
			n := 1 + sh.RNG.Intn(8)
			if err := site.Preload(n, hardware.DNNInference, 300); err != nil {
				return FleetRow{}, err
			}
			background.Add(float64(n))
		}
		sum, _, err := s.run(f, nil)
		if err != nil {
			return FleetRow{}, err
		}
		f.MergeInto(sh.Obs)
		row := fleetRow(s.vehicles, sum)
		row.Replication = sh.Index
		row.OffloadShare /= float64(s.rounds)
		return row, nil
	})
}

// FleetSweepTable renders E13: one row per replication plus an aggregate
// line averaging the replication means.
func FleetSweepTable(res *runner.Report[FleetRow]) *Table {
	t := tableOf("E13: parallel fleet sweep (per-replication aggregate over all rounds)",
		[]string{"Replication", "Mean (ms)", "Max (ms)", "Offload share", "Hang-ups"}, res.Results,
		func(r FleetRow) []string { return fleetCells(r.Replication, r) })
	var meanSum, maxSum, shareSum float64
	hangups := 0
	for _, r := range res.Results {
		meanSum += r.MeanMS
		maxSum += r.MaxMS
		shareSum += r.OffloadShare
		hangups += r.HangUps
	}
	if n := float64(len(res.Results)); n > 0 {
		t.Rows = append(t.Rows, []string{
			"mean", f2(meanSum / n), f2(maxSum / n), f2(shareSum / n),
			fmt.Sprintf("%d", hangups),
		})
	}
	return t
}

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

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Vehicles) == 0 {
		c.Vehicles = []int{100, 1000, 10000}
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	return c
}

// RunScale executes the E16 sweep: every fleet size at every shard count
// of e16Scale, a 16-RSU corridor with disjoint coverage disks (1250 m
// spacing, 600 m radius) so offload load spreads along it. A row carries
// an FNV digest over every round and the merged telemetry, and RunScale
// fails loudly if any shard count changes it — the determinism contract is
// asserted in-process on top of the external report diff in `make
// determinism`.
func RunScale(cfg ScaleConfig) ([]FleetRow, error) {
	cfg = cfg.withDefaults()
	var rows []FleetRow
	for _, v := range cfg.Vehicles {
		for si, shards := range cfg.Shards {
			s := e16Scale
			s.vehicles, s.shards = v, shards
			f, err := s.build(sim.NewStream(cfg.Seed, 0))
			if err != nil {
				return nil, err
			}
			h := fnv.New64a()
			sum, last, err := s.run(f, func(r int, _ time.Duration, rr fleet.RoundResult) error {
				_, err := fmt.Fprintf(h, "%d|%d|%d|%d|%d|%.9f|%d|%d|%d\n",
					r, rr.Invocations, rr.HangUps, rr.Total, rr.Max, rr.OffloadShare,
					rr.DeadlineHits, rr.Fallbacks, rr.Degraded)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("scale: v=%d s=%d: %w", v, shards, err)
			}
			reg, _ := f.MergedTelemetry()
			fmt.Fprint(h, reg.Render())
			row := fleetRow(v, sum)
			row.OffloadShare, row.Digest = last.OffloadShare, fmt.Sprintf("%016x", h.Sum64())
			if si == 0 {
				rows = append(rows, row)
			} else if prev := rows[len(rows)-1]; row != prev {
				return nil, fmt.Errorf(
					"scale: determinism violation at %d vehicles: shards=%d digest %s != shards=%d digest %s",
					v, shards, row.Digest, cfg.Shards[0], prev.Digest)
			}
		}
	}
	return rows, nil
}

// ScaleTable renders the report: identical for every shard count and every
// worker layout, so CI diffs it across -shards values.
func ScaleTable(rows []FleetRow) *Table {
	return tableOf("E16: sharded fleet scaling (deterministic simulation results; identical for every shard count)",
		[]string{"vehicles", "invocations", "hangups", "mean ms", "max ms", "offload", "digest"}, rows,
		func(r FleetRow) []string {
			return []string{
				fmt.Sprintf("%d", r.Vehicles),
				fmt.Sprintf("%d", r.Invocations),
				fmt.Sprintf("%d", r.HangUps),
				f2(r.MeanMS),
				f2(r.MaxMS),
				f2(r.OffloadShare),
				r.Digest,
			}
		})
}
