// Package edgeos implements EdgeOSv, OpenVDAP's vehicle operating system
// (paper §IV-C): polymorphic services with multiple execution pipelines,
// the Elastic Management module that picks a pipeline per invocation (or
// hangs the service up when none meets its deadline), container/TEE-based
// isolation, a Security module that attests installed images, an
// authenticated Data Sharing module, and a pseudonym-based Privacy module.
package edgeos

import (
	"fmt"
	"time"

	"repro/internal/tasks"
)

// ServiceState tracks a service's lifecycle.
type ServiceState int

const (
	// Running means the service accepts invocations.
	Running ServiceState = iota + 1
	// HungUp means Elastic Management suspended the service because no
	// pipeline met its deadline (paper: "the service will be hung up
	// until meeting requirements again").
	HungUp
	// Stopped means the service was shut down administratively.
	Stopped
)

var serviceStateNames = map[ServiceState]string{
	Running: "running", HungUp: "hung-up", Stopped: "stopped",
}

// String returns the lower-case state name.
func (s ServiceState) String() string {
	if n, ok := serviceStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Priority orders services: safety-critical ADAS outranks infotainment.
type Priority int

const (
	// PriorityBackground is best-effort (data migration, prefetch).
	PriorityBackground Priority = iota + 1
	// PriorityInteractive is user-facing but not safety relevant.
	PriorityInteractive
	// PrioritySafety is safety-critical (pedestrian alert, ADAS).
	PrioritySafety
)

// Pipeline is one way to execute a polymorphic service: how many leading
// tasks stay on-board before the rest offloads. The paper's kidnapper-
// search example has three: all on-board, all remote, and motion-detection
// local with recognition remote.
type Pipeline struct {
	// Name labels the pipeline in reports.
	Name string
	// SplitAfter is the count of leading topo-order tasks run on-board.
	// len(DAG.Tasks) means fully on-board; 0 means fully offloaded.
	SplitAfter int
}

// Service is a polymorphic service managed by EdgeOSv.
type Service struct {
	// Name is unique within the OS.
	Name string
	// Priority ranks the service for admission and preemption decisions.
	Priority Priority
	// Deadline is the per-invocation response-time requirement. Zero
	// means best-effort (never hung up).
	Deadline time.Duration
	// DAG is the service's computation, pre-partitioned by DSF.
	DAG *tasks.DAG
	// Pipelines are the allowed execution shapes. Empty means
	// DefaultPipelines(DAG), computed when the service is registered.
	Pipelines []Pipeline
	// TEE requests trusted-execution isolation (Security module).
	TEE bool
	// Image is the service binary content; its fingerprint is the
	// attestation measurement.
	Image []byte

	state ServiceState
	// pipelines is EffectivePipelines as of registration: what Elastic
	// Management evaluates on every invocation.
	pipelines []Pipeline
}

// Validate reports configuration errors.
func (s *Service) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("edgeos: service has no name")
	}
	if s.DAG == nil {
		return fmt.Errorf("edgeos: service %s has no DAG", s.Name)
	}
	if err := s.DAG.Validate(); err != nil {
		return fmt.Errorf("service %s: %w", s.Name, err)
	}
	if s.Deadline < 0 {
		return fmt.Errorf("edgeos: service %s has negative deadline", s.Name)
	}
	n := len(s.DAG.Tasks)
	for _, p := range s.Pipelines {
		if p.SplitAfter < 0 || p.SplitAfter > n {
			return fmt.Errorf("edgeos: service %s pipeline %s split %d outside [0, %d]",
				s.Name, p.Name, p.SplitAfter, n)
		}
	}
	if s.Priority < PriorityBackground || s.Priority > PrioritySafety {
		return fmt.Errorf("edgeos: service %s has invalid priority %d", s.Name, s.Priority)
	}
	return nil
}

// State returns the lifecycle state.
func (s *Service) State() ServiceState { return s.state }

// EffectivePipelines returns the service's pipelines, defaulting to every
// split point when none are declared.
func (s *Service) EffectivePipelines() []Pipeline {
	if len(s.Pipelines) > 0 {
		return s.Pipelines
	}
	return DefaultPipelines(s.DAG)
}

// DefaultPipelines enumerates fully-on-board, fully-offloaded, and every
// intermediate split of a DAG.
func DefaultPipelines(dag *tasks.DAG) []Pipeline {
	if dag == nil {
		return nil
	}
	n := len(dag.Tasks)
	out := make([]Pipeline, 0, n+1)
	out = append(out, Pipeline{Name: "onboard", SplitAfter: n})
	out = append(out, Pipeline{Name: "offload-all", SplitAfter: 0})
	for k := 1; k < n; k++ {
		out = append(out, Pipeline{Name: fmt.Sprintf("split-%d", k), SplitAfter: k})
	}
	return out
}
