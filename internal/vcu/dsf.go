package vcu

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DSF is the Dynamic Scheduling Framework (paper §IV-B2): it keeps resource
// and application profiles, partitions applications into task DAGs (the
// DAGs arrive pre-partitioned from package tasks), plans placements with a
// pluggable policy, and commits plans onto the real device executors.
type DSF struct {
	mhep   *MHEP
	policy Policy
	// restrict, when non-empty for an app, is the DSF control knob that
	// limits which devices the app may touch (resource isolation).
	restrict map[string]map[string]bool
	// scratch is the planner every built-in policy plans on (see
	// scratchPolicy); a DSF is single-goroutine, so one suffices.
	scratch planner

	scope obs.Scope
	m     dsfMetrics
}

// dsfMetrics holds the DSF's interned metric handles, resolved once in
// Instrument. All handles are nil-safe, so an uninstrumented DSF emits
// through them for free.
type dsfMetrics struct {
	plans          *telemetry.Counter
	planMakespan   *telemetry.HistogramHandle
	tasksCommitted *telemetry.Counter
	queueWait      *telemetry.HistogramHandle
	taskExec       *telemetry.HistogramHandle
	commits        *telemetry.Counter
	makespan       *telemetry.HistogramHandle
	energy         *telemetry.Counter
	deviceTasks    map[string]*telemetry.Counter // per-device, interned lazily
}

// Instrument attaches the DSF's observability scope: planning and
// committing then emit `vcu` spans and `vcu.*` metrics.
func (s *DSF) Instrument(sc obs.Scope) {
	s.scope = sc
	reg := sc.Metrics
	s.m = dsfMetrics{
		plans:          reg.CounterHandle("vcu.plans"),
		planMakespan:   reg.HistogramHandle("vcu.plan_makespan_ms"),
		tasksCommitted: reg.CounterHandle("vcu.tasks_committed"),
		queueWait:      reg.HistogramHandle("vcu.queue_wait_ms"),
		taskExec:       reg.HistogramHandle("vcu.task_exec_ms"),
		commits:        reg.CounterHandle("vcu.commits"),
		makespan:       reg.HistogramHandle("vcu.makespan_ms"),
		energy:         reg.CounterHandle("vcu.energy_j"),
		deviceTasks:    make(map[string]*telemetry.Counter),
	}
}

// deviceTaskCounter interns the per-device commit counter on first use.
func (s *DSF) deviceTaskCounter(name string) *telemetry.Counter {
	if s.scope.Metrics == nil {
		return nil
	}
	c, ok := s.m.deviceTasks[name]
	if !ok {
		c = s.scope.Metrics.CounterHandle("vcu.device." + name + ".tasks")
		s.m.deviceTasks[name] = c
	}
	return c
}

// NewDSF builds a scheduler over the platform with the given policy.
func NewDSF(m *MHEP, policy Policy) (*DSF, error) {
	if m == nil {
		return nil, fmt.Errorf("vcu: nil mHEP")
	}
	if policy == nil {
		return nil, fmt.Errorf("vcu: nil policy")
	}
	return &DSF{mhep: m, policy: policy, restrict: make(map[string]map[string]bool)}, nil
}

// SetPolicy swaps the scheduling policy at runtime.
func (s *DSF) SetPolicy(p Policy) error {
	if p == nil {
		return fmt.Errorf("vcu: nil policy")
	}
	s.policy = p
	return nil
}

// Policy returns the active policy.
func (s *DSF) Policy() Policy { return s.policy }

// MHEP returns the managed platform.
func (s *DSF) MHEP() *MHEP { return s.mhep }

// RestrictApp limits the named application to the given devices — the
// control-knob isolation the paper describes ("resources accessed by
// applications are tightly controlled by DSF"). An empty device list
// removes the restriction.
func (s *DSF) RestrictApp(app string, deviceNames []string) {
	if len(deviceNames) == 0 {
		delete(s.restrict, app)
		return
	}
	set := make(map[string]bool, len(deviceNames))
	for _, n := range deviceNames {
		set[n] = true
	}
	s.restrict[app] = set
}

// allowedDevices applies the app restriction to the online device set.
func (s *DSF) allowedDevices(app string) []*Device {
	online := s.mhep.OnlineDevices()
	allowed, restricted := s.restrict[app]
	if !restricted {
		return online
	}
	var out []*Device
	for _, d := range online {
		if allowed[d.Name()] {
			out = append(out, d)
		}
	}
	return out
}

// Plan produces a tentative placement for the DAG at virtual time now
// without touching device queues.
func (s *DSF) Plan(dag *tasks.DAG, now time.Duration) (*Plan, error) {
	if dag == nil {
		return nil, fmt.Errorf("vcu: nil DAG")
	}
	devices := s.allowedDevices(dag.Name)
	if len(devices) == 0 {
		return nil, fmt.Errorf("vcu: no online devices available to app %s", dag.Name)
	}
	var plan *Plan
	var err error
	if sp, ok := s.policy.(scratchPolicy); ok {
		plan, err = sp.plan(&s.scratch, dag, devices, now)
	} else {
		plan, err = s.policy.Plan(dag, devices, now)
	}
	if err != nil {
		return nil, err
	}
	s.m.plans.Inc()
	s.m.planMakespan.ObserveDuration(plan.Makespan)
	if s.scope.Tracer.Enabled() {
		s.scope.Tracer.SpanAt("vcu", "vcu.plan", now, now+plan.Makespan,
			trace.String("dag", dag.Name),
			trace.String("policy", s.policy.Name()),
			trace.Int("tasks", len(plan.Assignments)),
			trace.F64("energy_j", plan.EnergyJ))
	}
	return plan, nil
}

// Commit applies a plan to the real executors, reserving device time. The
// returned plan carries the actually committed times, which can be later
// than planned if other work landed on the devices since planning.
func (s *DSF) Commit(dag *tasks.DAG, plan *Plan) (*Plan, error) {
	if plan == nil {
		return nil, fmt.Errorf("vcu: nil plan")
	}
	committed := &Plan{DAG: plan.DAG, Policy: plan.Policy}
	var commitStart time.Duration
	if len(plan.Assignments) > 0 {
		commitStart = plan.Assignments[0].Start
		for _, a := range plan.Assignments {
			if a.Start < commitStart {
				commitStart = a.Start
			}
		}
	}
	span := s.scope.Tracer.StartSpanAt("vcu", "vcu.commit", commitStart,
		trace.String("dag", plan.DAG), trace.String("policy", plan.Policy))
	committedOK := false
	defer func() {
		span.SetAttr(trace.Bool("ok", committedOK))
		span.FinishAt(commitStart + committed.Makespan)
	}()
	finishOf := make(map[string]time.Duration, len(plan.Assignments))
	for _, a := range plan.Assignments {
		dev, err := s.mhep.Device(a.Device)
		if err != nil {
			return nil, err
		}
		t, ok := dag.Get(a.TaskID)
		if !ok {
			return nil, fmt.Errorf("vcu: plan task %s not in DAG %s", a.TaskID, dag.Name)
		}
		ready := a.Start
		for _, depID := range t.Deps {
			depFinish, ok := finishOf[depID]
			if !ok {
				return nil, fmt.Errorf("vcu: plan for %s commits %s before its dependency %s", dag.Name, t.ID, depID)
			}
			depAssign, _ := plan.Assignment(depID)
			depDev, err := s.mhep.Device(depAssign.Device)
			if err != nil {
				return nil, err
			}
			depTask, _ := dag.Get(depID)
			if arrive := depFinish + TransferTime(depDev, dev, depTask.OutputBytes); arrive > ready {
				ready = arrive
			}
		}
		start, finish, err := dev.Executor().Submit(ready, t.Class, t.GFLOP)
		if err != nil {
			return nil, fmt.Errorf("commit %s on %s: %w", t.ID, dev.Name(), err)
		}
		finishOf[t.ID] = finish
		if s.scope.Tracer.Enabled() {
			s.scope.Tracer.SpanAt("vcu", "vcu.task", start, finish,
				trace.String("task", t.ID),
				trace.String("device", dev.Name()),
				trace.Dur("queue_wait", start-ready))
		}
		s.m.tasksCommitted.Inc()
		s.m.queueWait.ObserveDuration(start - ready)
		s.m.taskExec.ObserveDuration(finish - start)
		s.deviceTaskCounter(dev.Name()).Inc()
		committed.Assignments = append(committed.Assignments, Assignment{
			TaskID:  t.ID,
			Device:  dev.Name(),
			Start:   start,
			Finish:  finish,
			EnergyJ: dev.Processor().EnergyJ(finish - start),
		})
	}
	if len(committed.Assignments) > 0 {
		base := committed.Assignments[0].Start
		var last time.Duration
		for _, a := range committed.Assignments {
			if a.Start < base {
				base = a.Start
			}
			if a.Finish > last {
				last = a.Finish
			}
			committed.EnergyJ += a.EnergyJ
		}
		committed.Makespan = last - base
		commitStart = base
	}
	committedOK = true
	s.m.commits.Inc()
	s.m.makespan.ObserveDuration(committed.Makespan)
	s.m.energy.Add(committed.EnergyJ)
	return committed, nil
}

// Run plans and immediately commits a DAG; the common path.
func (s *DSF) Run(dag *tasks.DAG, now time.Duration) (*Plan, error) {
	plan, err := s.Plan(dag, now)
	if err != nil {
		return nil, err
	}
	return s.Commit(dag, plan)
}
