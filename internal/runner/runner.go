// Package runner is the platform's parallel replication driver: it executes
// N independent replications (fleet runs, parameter-sweep points,
// calibration trials) across a worker pool and merges their results
// deterministically.
//
// The sharding model is "share nothing, merge after": every replication
// gets its own Shard holding an RNG substream keyed by the replication
// index (sim.NewStream) and a private obs.Scope (registry + tracer) — one
// lane per replication. Jobs must build their whole world (fleet, sites,
// engines) inside the shard and draw all randomness from the shard's RNG.
// Because nothing is shared, jobs run race-free at any -parallel level;
// because every per-shard input is a pure function of (seed, index) and
// the merge happens in index order after all workers exit, the merged
// output is byte-identical no matter how many workers ran.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Shard is one replication's private world: everything a job may mutate.
type Shard struct {
	// Index is the replication number in [0, Replications).
	Index int
	// RNG is the replication's random substream, keyed by (Seed, Index).
	RNG *sim.RNG
	// Obs is the replication-private lane — a registry and a tracer — merged
	// (in index order) into the report's scope after all workers finish.
	Obs obs.Scope
}

// Config parameterizes Run.
type Config struct {
	// Replications is the number of independent shards to execute (>= 1).
	Replications int
	// Parallel is the worker-pool size. Non-positive means GOMAXPROCS;
	// values above Replications are clamped.
	Parallel int
	// Seed keys every shard's RNG substream.
	Seed int64
}

// Report is the deterministic merge of all replications.
type Report[T any] struct {
	// Results holds each replication's result, ordered by index.
	Results []T
	// Obs is every shard lane merged in index order: counters summed,
	// gauges last-index-wins, histograms combined, span forests appended.
	Obs obs.Scope
}

// Run executes cfg.Replications independent jobs over a pool of
// cfg.Parallel workers and merges the outcome. The job receives its own
// Shard and must confine all mutation to it. Run returns the first failed
// replication's error (lowest index, deterministically) and no report.
func Run[T any](cfg Config, job func(*Shard) (T, error)) (*Report[T], error) {
	if job == nil {
		return nil, fmt.Errorf("runner: nil job")
	}
	n := cfg.Replications
	if n < 1 {
		return nil, fmt.Errorf("runner: need at least one replication, got %d", n)
	}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)
	shards := make([]*Shard, n)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sh := &Shard{Index: i, RNG: sim.NewStream(cfg.Seed, uint64(i)), Obs: newLane()}
				shards[i] = sh
				results[i], errs[i] = job(sh)
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: replication %d: %w", i, err)
		}
	}

	rep := &Report[T]{Results: results, Obs: newLane()}
	// Merge strictly in index order: this is what makes the report
	// independent of worker count and scheduling.
	for _, sh := range shards {
		rep.Obs.Merge(sh.Obs)
	}
	return rep, nil
}

// newLane returns an empty registry + tracer scope.
func newLane() obs.Scope {
	return obs.Scope{Metrics: telemetry.NewRegistry(), Tracer: trace.New()}
}
