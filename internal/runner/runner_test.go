package runner

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// sweepOnce runs a small synthetic workload — every shard draws from its
// RNG, bumps metrics, and records spans — and returns the merged report.
func sweepOnce(t *testing.T, parallel int) *Report[float64] {
	t.Helper()
	rep, err := Run(Config{Replications: 8, Parallel: parallel, Seed: 42},
		func(sh *Shard) (float64, error) {
			v := sh.RNG.Float64()
			sh.Obs.Metrics.Add("job.runs", 1)
			sh.Obs.Metrics.Add(fmt.Sprintf("job.shard.%d", sh.Index), 1)
			sh.Obs.Metrics.Set("job.last_index", float64(sh.Index))
			sh.Obs.Metrics.Observe("job.value", v)
			span := sh.Obs.Tracer.StartSpanAt("runner", "job", 0)
			sh.Obs.Tracer.SpanAt("runner", "draw", 0, time.Duration(sh.Index))
			span.FinishAt(time.Duration(sh.Index + 1))
			return v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunDeterministicAcrossParallelLevels: the core guarantee — results,
// merged metrics, and merged traces are identical at any worker count.
func TestRunDeterministicAcrossParallelLevels(t *testing.T) {
	serial := sweepOnce(t, 1)
	for _, parallel := range []int{2, 4, 8, 16} {
		got := sweepOnce(t, parallel)
		for i := range serial.Results {
			if serial.Results[i] != got.Results[i] {
				t.Fatalf("parallel %d: result[%d] = %v, want %v",
					parallel, i, got.Results[i], serial.Results[i])
			}
		}
		if serial.Obs.Metrics.Render() != got.Obs.Metrics.Render() {
			t.Fatalf("parallel %d: merged metrics differ", parallel)
		}
		if serial.Obs.Tracer.RenderTree() != got.Obs.Tracer.RenderTree() {
			t.Fatalf("parallel %d: merged traces differ", parallel)
		}
	}
}

// TestRunMergesInIndexOrder: gauges are last-index-wins and counters sum.
func TestRunMergesInIndexOrder(t *testing.T) {
	rep := sweepOnce(t, 4)
	if got := rep.Obs.Metrics.Counter("job.runs"); got != 8 {
		t.Fatalf("job.runs = %v, want 8", got)
	}
	if got, ok := rep.Obs.Metrics.Gauge("job.last_index"); !ok || got != 7 {
		t.Fatalf("job.last_index = %v (%v), want 7 (highest index wins)", got, ok)
	}
	if h := rep.Obs.Metrics.Histogram("job.value"); h == nil || h.Count() != 8 {
		t.Fatal("merged histogram missing samples")
	}
	// Shard traces appear in index order: the "job" root spans finish at
	// index+1.
	roots := rep.Obs.Tracer.Roots()
	if len(roots) != 8 {
		t.Fatalf("merged roots = %d, want 8", len(roots))
	}
	for i, r := range roots {
		if r.End != time.Duration(i+1) {
			t.Fatalf("root %d finishes at %v, want %v (index order)", i, r.End, time.Duration(i+1))
		}
	}
}

// TestRunShardRNGsAreIndependent: distinct replications draw distinct
// streams keyed by index, not by worker or scheduling.
func TestRunShardRNGsAreIndependent(t *testing.T) {
	rep := sweepOnce(t, 3)
	seen := map[float64]bool{}
	for _, v := range rep.Results {
		if seen[v] {
			t.Fatalf("two replications drew the same value %v", v)
		}
		seen[v] = true
	}
}

// TestRunErrorReporting: the lowest failing index is reported, with its
// replication number, no matter the worker count.
func TestRunErrorReporting(t *testing.T) {
	_, err := Run(Config{Replications: 8, Parallel: 4, Seed: 1},
		func(sh *Shard) (int, error) {
			if sh.Index >= 5 {
				return 0, fmt.Errorf("boom at %d", sh.Index)
			}
			return sh.Index, nil
		})
	if err == nil {
		t.Fatal("failing job reported no error")
	}
	if !strings.Contains(err.Error(), "replication 5") {
		t.Fatalf("error %q does not name the lowest failing replication", err)
	}
}

// TestRunValidation: degenerate configs are rejected; parallel levels above
// the replication count are clamped, not an error.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Replications: 0}, func(sh *Shard) (int, error) { return 0, nil }); err == nil {
		t.Fatal("zero replications accepted")
	}
	var nilJob func(*Shard) (int, error)
	if _, err := Run(Config{Replications: 1}, nilJob); err == nil {
		t.Fatal("nil job accepted")
	}
	rep, err := Run(Config{Replications: 2, Parallel: 64, Seed: 9},
		func(sh *Shard) (int, error) { return sh.Index, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || rep.Results[0] != 0 || rep.Results[1] != 1 {
		t.Fatalf("results = %v, want [0 1]", rep.Results)
	}
}

// TestRunSpanLimit: the merged report holds to the tracer's span cap — the
// runner's memory bound — however many spans the shards recorded between
// them, and counts what it dropped the same way at any parallel level.
func TestRunSpanLimit(t *testing.T) {
	const perShard = trace.DefaultSpanLimit/4 + 10
	at := func(parallel int) int {
		rep, err := Run(Config{Replications: 4, Parallel: parallel, Seed: 7}, func(sh *Shard) (int, error) {
			for i := 0; i < perShard; i++ {
				sh.Obs.Tracer.SpanAt("c", "op", 0, 1)
			}
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := rep.Obs.Tracer.SpanCount(); n != trace.DefaultSpanLimit {
			t.Fatalf("merged report retains %d spans, want the cap of %d", n, trace.DefaultSpanLimit)
		}
		return rep.Obs.Tracer.Dropped()
	}
	if d1, d4 := at(1), at(4); d1 != 40 || d4 != 40 {
		t.Fatalf("dropped %d spans at parallel 1 and %d at 4, want 40 both times", d1, d4)
	}
}
