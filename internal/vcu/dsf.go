package vcu

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DSF is the Dynamic Scheduling Framework (paper §IV-B2): it keeps resource
// and application profiles, plans placements of task DAGs (which arrive
// pre-partitioned from package tasks) with one of its policies, and commits
// plans onto the real device executors.
type DSF struct {
	mhep   *MHEP
	policy Policy
	// scratch is the planner every plan is made on; a DSF is
	// single-goroutine, so one suffices.
	scratch planner
	// run is the commit's scratch (see commitAt).
	run committer

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
	deviceTasks    telemetry.Family // vcu.device.<name>.tasks
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
		deviceTasks:    reg.Family("vcu.device.", ".tasks"),
	}
}

// NewDSF builds a scheduler over the platform with the given policy.
func NewDSF(m *MHEP, policy Policy) (*DSF, error) {
	if m == nil {
		return nil, fmt.Errorf("vcu: nil mHEP")
	}
	if policy == nil {
		return nil, fmt.Errorf("vcu: nil policy")
	}
	return &DSF{mhep: m, policy: policy}, nil
}

// Plan produces a tentative placement for the DAG at virtual time now
// without touching device queues. The plan is the caller's to keep.
func (s *DSF) Plan(dag *tasks.DAG, now time.Duration) (*Plan, error) {
	plan, err := s.plan(dag, now)
	if err != nil {
		return nil, err
	}
	out := *plan
	out.Assignments = slices.Clone(plan.Assignments)
	return &out, nil
}

// Estimate is Plan for callers that need only the plan's makespan and
// energy: it builds nothing the caller would have to keep.
func (s *DSF) Estimate(dag *tasks.DAG, now time.Duration) (makespan time.Duration, energyJ float64, err error) {
	plan, err := s.plan(dag, now)
	if err != nil {
		return 0, 0, err
	}
	return plan.Makespan, plan.EnergyJ, nil
}

// plan is Plan on the DSF's scratch: the plan is valid until the DSF's
// next plan.
func (s *DSF) plan(dag *tasks.DAG, now time.Duration) (*Plan, error) {
	if dag == nil {
		return nil, fmt.Errorf("vcu: nil DAG")
	}
	devices := s.mhep.ordered
	if len(devices) == 0 {
		return nil, fmt.Errorf("vcu: no devices available to app %s", dag.Name)
	}
	plan, err := s.policy.plan(&s.scratch, dag, devices, now)
	if err != nil {
		return nil, err
	}
	s.m.plans.Inc()
	s.m.planMakespan.ObserveDuration(plan.Makespan)
	s.scope.Tracer.SpanAt("vcu", "vcu.plan", now, now+plan.Makespan,
		trace.String("dag", dag.Name),
		trace.String("policy", s.policy.Name()),
		trace.Int("tasks", len(plan.Assignments)),
		trace.F64("energy_j", plan.EnergyJ))
	return plan, nil
}

// committer is the DSF's commit scratch: per-task state indexed like
// DAG.Tasks, the resolved form of a named plan, and the committed plan Run
// returns. Every commit overwrites it.
type committer struct {
	// devOf is the device of each task's first committed assignment, nil
	// until one is; finish is when its latest one finished.
	devOf  []*Device
	finish []time.Duration
	at     []placement
	assign []Assignment
	out    Plan
}

// size makes the per-task arrays n long, with devOf cleared.
func (cm *committer) size(n int) {
	if cap(cm.devOf) < n {
		cm.devOf, cm.finish = make([]*Device, n), make([]time.Duration, n)
	}
	cm.devOf, cm.finish = cm.devOf[:n], cm.finish[:n]
	clear(cm.devOf)
}

// commit applies a plan that names its tasks and devices to the real
// executors, reserving device time. It resolves the names to indices, then
// runs commitAt. A plan naming an unknown device or task, or committing a
// task before one of its dependencies, is refused before any device time
// is reserved.
func (s *DSF) commit(dag *tasks.DAG, plan *Plan) (*Plan, error) {
	if plan == nil {
		return nil, fmt.Errorf("vcu: nil plan")
	}
	if dag == nil {
		return nil, fmt.Errorf("vcu: nil DAG")
	}
	c := dag.Compiled()
	cm := &s.run
	cm.size(len(dag.Tasks)) // devOf marks the tasks placed so far
	cm.at = cm.at[:0]
	for _, a := range plan.Assignments {
		dev, err := s.mhep.Device(a.Device)
		if err != nil {
			return nil, err
		}
		ti := slices.IndexFunc(dag.Tasks, func(t *tasks.Task) bool { return t.ID == a.TaskID })
		if ti < 0 {
			return nil, fmt.Errorf("vcu: plan task %s not in DAG %s", a.TaskID, dag.Name)
		}
		t := dag.Tasks[ti]
		for j, di := range c.Deps(ti) {
			if di < 0 || cm.devOf[di] == nil {
				return nil, fmt.Errorf("vcu: plan for %s commits %s before its dependency %s", dag.Name, t.ID, t.Deps[j])
			}
		}
		if cm.devOf[ti] == nil {
			cm.devOf[ti] = dev
		}
		cm.at = append(cm.at, placement{ti, dev})
	}
	return s.commitAt(dag, c, plan, cm.at)
}

// commitAt is the one commit body: it submits plan's assignments in order,
// the k-th running task at[k].task on device at[k].dev, ready at its planned
// start once its dependencies' outputs arrive, and returns the plan of the
// actually committed times, which can be later than planned if other work
// landed on the devices since planning. c is dag's compiled form, and every
// dependency of at[k].task is placed by an earlier entry: the planner
// places in topological order, and commit checks. The committed plan is the
// DSF's scratch, valid until the DSF's next plan.
func (s *DSF) commitAt(dag *tasks.DAG, c *tasks.Compiled, plan *Plan, at []placement) (*Plan, error) {
	cm := &s.run
	cm.size(len(dag.Tasks))
	cm.assign = cm.assign[:0]
	cm.out = Plan{DAG: plan.DAG, Policy: plan.Policy}
	committed := &cm.out
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
	for k, a := range plan.Assignments {
		ti, dev := at[k].task, at[k].dev
		t := dag.Tasks[ti]
		ready := a.Start
		for _, di := range c.Deps(ti) {
			if arrive := cm.finish[di] + TransferTime(cm.devOf[di], dev, dag.Tasks[di].OutputBytes); arrive > ready {
				ready = arrive
			}
		}
		start, finish, err := dev.Executor().Submit(ready, t.Class, t.GFLOP)
		if err != nil {
			return nil, fmt.Errorf("commit %s on %s: %w", t.ID, dev.Name(), err)
		}
		if cm.devOf[ti] == nil {
			cm.devOf[ti] = dev
		}
		cm.finish[ti] = finish
		s.scope.Tracer.SpanAt("vcu", "vcu.task", start, finish,
			trace.String("task", t.ID),
			trace.String("device", dev.Name()),
			trace.Dur("queue_wait", start-ready))
		s.m.tasksCommitted.Inc()
		s.m.queueWait.ObserveDuration(start - ready)
		s.m.taskExec.ObserveDuration(finish - start)
		s.m.deviceTasks.Get(dev.Name()).Inc()
		cm.assign = append(cm.assign, Assignment{
			TaskID:  t.ID,
			Device:  dev.Name(),
			Start:   start,
			Finish:  finish,
			EnergyJ: dev.Processor().EnergyJ(finish - start),
		})
	}
	if len(cm.assign) > 0 {
		committed.Assignments = cm.assign
		base := cm.assign[0].Start
		var last time.Duration
		for _, a := range cm.assign {
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

// Run plans and immediately commits a DAG; the common path. A built-in
// policy's plan commits straight from the planner's task and device
// indices. The committed plan is the DSF's scratch, valid until the DSF's
// next plan.
func (s *DSF) Run(dag *tasks.DAG, now time.Duration) (*Plan, error) {
	plan, err := s.plan(dag, now)
	if err != nil {
		return nil, err
	}
	if plan == &s.scratch.out {
		return s.commitAt(dag, s.scratch.c, plan, s.scratch.at)
	}
	return s.commit(dag, plan)
}
