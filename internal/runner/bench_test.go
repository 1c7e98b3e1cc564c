package runner

import (
	"fmt"
	"testing"
)

// BenchmarkRunParallelScaling measures wall-clock scaling of the worker
// pool on a CPU-bound replication job. On an M-core machine the parallel=N
// (N <= M) variant should approach N-times the parallel=1 throughput —
// the ≥2x-at-4-workers acceptance bar for the sharded runner. (On a
// single-core machine all variants necessarily tie.)
func BenchmarkRunParallelScaling(b *testing.B) {
	job := func(sh *Shard) (float64, error) {
		// ~1M RNG draws of pure CPU per replication.
		var sum float64
		for i := 0; i < 1_000_000; i++ {
			sum += sh.RNG.Float64()
		}
		sh.Obs.Metrics.Observe("job.sum", sum)
		return sum, nil
	}
	for _, parallel := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{Replications: 8, Parallel: parallel, Seed: 42}, job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
