package tasks

import (
	"fmt"

	"repro/internal/hardware"
	"repro/internal/sim"
)

// RandomDAGConfig bounds the random-workload generator used for scheduler
// fuzzing and property tests.
type RandomDAGConfig struct {
	// MinTasks and MaxTasks bound the DAG size. Zero means 3..12.
	MinTasks int
	MaxTasks int
	// EdgeProb is the chance of a dependency between any earlier/later
	// task pair. Zero means 0.3.
	EdgeProb float64
}

func (c RandomDAGConfig) withDefaults() RandomDAGConfig {
	if c.MinTasks == 0 {
		c.MinTasks = 3
	}
	if c.MaxTasks == 0 {
		c.MaxTasks = 12
	}
	if c.EdgeProb == 0 {
		c.EdgeProb = 0.3
	}
	return c
}

// randomClasses are the classes random tasks draw from. DNNTraining and
// Crypto are excluded: not every catalog device runs them, so random DAGs
// stay placeable on any reasonable platform.
var randomClasses = []hardware.Class{
	hardware.General, hardware.Vision, hardware.DNNInference, hardware.Codec,
}

// RandomDAG generates a valid, acyclic, connected-enough DAG. Generation
// is deterministic given the RNG state.
func RandomDAG(name string, cfg RandomDAGConfig, rng *sim.RNG) (*DAG, error) {
	if rng == nil {
		return nil, fmt.Errorf("tasks: nil RNG")
	}
	cfg = cfg.withDefaults()
	if cfg.MinTasks < 1 || cfg.MaxTasks < cfg.MinTasks {
		return nil, fmt.Errorf("tasks: bad size bounds [%d, %d]", cfg.MinTasks, cfg.MaxTasks)
	}
	n := cfg.MinTasks + rng.Intn(cfg.MaxTasks-cfg.MinTasks+1)
	d := &DAG{Name: name, Tasks: make([]*Task, 0, n)}
	for i := 0; i < n; i++ {
		t := &Task{
			ID:          fmt.Sprintf("t%d", i),
			Name:        fmt.Sprintf("random task %d", i),
			Class:       randomClasses[rng.Intn(len(randomClasses))],
			GFLOP:       rng.Uniform(0.01, 20),
			InputBytes:  rng.Uniform(64, 1<<20),
			OutputBytes: rng.Uniform(64, 1<<20),
			MemoryMB:    rng.Uniform(1, 256),
		}
		// Edges only from earlier to later tasks: acyclic by construction.
		for j := 0; j < i; j++ {
			if rng.Bernoulli(cfg.EdgeProb) {
				t.Deps = append(t.Deps, fmt.Sprintf("t%d", j))
			}
		}
		d.Tasks = append(d.Tasks, t)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("tasks: generated invalid DAG: %w", err)
	}
	return d, nil
}
