package experiments

import (
	"fmt"
	"testing"

	"repro/internal/runner"
)

// TestFleetSweepDeterministicAcrossParallel: the acceptance criterion for
// E13 — same seed, any parallel level, byte-identical rendered table,
// merged telemetry, and merged trace.
func TestFleetSweepDeterministicAcrossParallel(t *testing.T) {
	at := func(parallel int) (string, string, string) {
		res, err := RunFleetSweep(runner.Config{Replications: 8, Parallel: parallel, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return FleetSweepTable(res).String(), res.Obs.Metrics.Render(), res.Obs.Tracer.RenderTree()
	}
	table1, metrics1, trace1 := at(1)
	for _, parallel := range []int{2, 8} {
		tableN, metricsN, traceN := at(parallel)
		if tableN != table1 {
			t.Fatalf("parallel %d table differs:\n%s\nvs\n%s", parallel, table1, tableN)
		}
		if metricsN != metrics1 {
			t.Fatalf("parallel %d merged telemetry differs", parallel)
		}
		if traceN != trace1 {
			t.Fatalf("parallel %d merged trace differs", parallel)
		}
	}
}

// TestFleetSweepShardsDiffer: replications must not be clones — the
// per-replication RNG streams give each fleet a different traffic mix.
func TestFleetSweepShardsDiffer(t *testing.T) {
	res, err := RunFleetSweep(runner.Config{Replications: 4, Parallel: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Results))
	}
	distinct := map[float64]bool{}
	for i, r := range res.Results {
		if r.Replication != i {
			t.Fatalf("row %d has replication %d (ordering broken)", i, r.Replication)
		}
		distinct[r.MeanMS] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d replications produced the same mean latency; shards are not independent", len(res.Results))
	}
	// The merged registry aggregates every shard's executions.
	if got := res.Obs.Metrics.Counter("offload.executions"); got != 4*8*5 {
		t.Fatalf("merged offload.executions = %v, want 160 (4 reps x 8 vehicles x 5 rounds)", got)
	}
	if res.Obs.Tracer.SpanCount() == 0 {
		t.Fatal("merged trace is empty")
	}
}

// BenchmarkFleetSweepParallel measures the end-to-end sweep at increasing
// worker counts (the vdapbench -parallel levels). Multi-core machines
// should see ≥2x wall-clock speedup at parallel=4 versus parallel=1.
func BenchmarkFleetSweepParallel(b *testing.B) {
	for _, parallel := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunFleetSweep(runner.Config{
					Replications: 8, Parallel: parallel, Seed: 42,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
