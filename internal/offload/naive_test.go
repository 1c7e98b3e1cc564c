package offload

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/network"
	"repro/internal/tasks"
	"repro/internal/xedge"
)

// This file keeps EstimateSite and execute as they were before the compiled
// DAG — TopoOrder per call, a cloned prefix DAG per call, string-keyed
// finish and local-set maps, Successors and Get scans — minus their spans
// and metrics. differential_test.go checks the real ones against it.

func (e *Engine) naiveEstimateSite(dag *tasks.DAG, site *xedge.Site, splitAfter int, now time.Duration) Estimate {
	est := Estimate{Dest: site.Name(), Kind: site.Kind().String(), SplitAfter: splitAfter}
	order, err := dag.TopoOrder()
	if err != nil {
		est.Reason = err.Error()
		return est
	}
	if splitAfter < 0 || splitAfter >= len(order) {
		est.Reason = fmt.Sprintf("split %d outside [0, %d)", splitAfter, len(order))
		return est
	}
	if !site.Reachable(e.mob.PositionAt(now)) {
		est.Reason = "out of coverage"
		return est
	}

	local := order[:splitAfter]
	remote := order[splitAfter:]
	cursor := now

	if len(local) > 0 {
		prefix := &tasks.DAG{Name: dag.Name + "-prefix", Tasks: naiveCloneTasks(local)}
		plan, err := e.dsf.Plan(prefix, now)
		if err != nil {
			est.Reason = err.Error()
			return est
		}
		cursor = now + plan.Makespan
		est.VehicleEnergyJ += plan.EnergyJ
		est.Compute += plan.Makespan
	}

	upBytes := naiveCrossingBytes(dag, local, remote)
	path := e.naivePath(site, now)
	up, err := path.TransferTime(upBytes, network.Uplink)
	if err != nil {
		est.Reason = err.Error()
		return est
	}
	est.Uplink = up
	est.BytesSent = upBytes
	est.VehicleEnergyJ += RadioPowerW * up.Seconds()
	cursor += up

	computeStart := cursor
	finishOf := make(map[string]time.Duration, len(remote))
	for _, t := range remote {
		ready := cursor
		for _, dep := range t.Deps {
			if f, ok := finishOf[dep]; ok && f > ready {
				ready = f
			}
		}
		finish, err := site.EstimateExec(ready, t.Class, t.GFLOP)
		if err != nil {
			est.Reason = err.Error()
			return est
		}
		finishOf[t.ID] = finish
	}
	var remoteDone time.Duration
	for _, f := range finishOf {
		if f > remoteDone {
			remoteDone = f
		}
	}
	est.Compute += remoteDone - computeStart

	var downBytes float64
	for _, t := range remote {
		if len(dag.Successors(t.ID)) == 0 {
			downBytes += t.OutputBytes
		}
	}
	down, err := path.TransferTime(downBytes, network.Downlink)
	if err != nil {
		est.Reason = err.Error()
		return est
	}
	est.Downlink = down
	est.Total = (remoteDone - now) + down
	if !e.withinBudget(est.BytesSent) {
		remaining, _ := e.BandwidthRemaining()
		est.Reason = fmt.Sprintf("bandwidth budget exhausted (%.0f B needed, %.0f B left)",
			est.BytesSent, remaining)
		return est
	}
	est.Feasible = true
	return est
}

// naivePath is adjustedPath without the per-site cache.
func (e *Engine) naivePath(site *xedge.Site, now time.Duration) network.Path {
	p := e.mobilityAdjustedPath(site.Access())
	if e.pathAdjust != nil {
		p = e.pathAdjust(nil, site.Name(), p, now)
	}
	return p
}

func naiveCrossingBytes(dag *tasks.DAG, local, remote []*tasks.Task) float64 {
	localSet := make(map[string]bool, len(local))
	for _, t := range local {
		localSet[t.ID] = true
	}
	var total float64
	for _, t := range remote {
		if len(t.Deps) == 0 {
			total += t.InputBytes
			continue
		}
		for _, dep := range t.Deps {
			if localSet[dep] {
				depTask, _ := dag.Get(dep)
				total += depTask.OutputBytes
			}
		}
	}
	return total
}

func naiveCloneTasks(ts []*tasks.Task) []*tasks.Task {
	ids := make(map[string]bool, len(ts))
	for _, t := range ts {
		ids[t.ID] = true
	}
	out := make([]*tasks.Task, 0, len(ts))
	for _, t := range ts {
		cp := *t
		// Drop dependencies outside the slice (they are satisfied inputs).
		var deps []string
		for _, d := range t.Deps {
			if ids[d] {
				deps = append(deps, d)
			}
		}
		cp.Deps = deps
		out = append(out, &cp)
	}
	return out
}

// naiveExecute is the remote branch of execute: prefix through the DSF,
// then every remote task submitted to the site in topo order.
func (e *Engine) naiveExecute(dag *tasks.DAG, est Estimate, now time.Duration) (time.Duration, error) {
	if !est.Feasible {
		return 0, fmt.Errorf("offload: cannot execute infeasible estimate for %s", est.Dest)
	}
	if !e.withinBudget(est.BytesSent) {
		return 0, fmt.Errorf("offload: bandwidth budget exhausted for %s", est.Dest)
	}
	var site *xedge.Site
	for _, s := range e.sites {
		if s.Name() == est.Dest {
			site = s
			break
		}
	}
	if site == nil {
		return 0, fmt.Errorf("offload: unknown destination %q", est.Dest)
	}
	order, err := dag.TopoOrder()
	if err != nil {
		return 0, err
	}
	if est.SplitAfter > 0 {
		prefix := &tasks.DAG{Name: dag.Name + "-prefix", Tasks: naiveCloneTasks(order[:est.SplitAfter])}
		plan, err := e.dsf.Run(prefix, now)
		if err != nil {
			return 0, err
		}
		now += plan.Makespan
	}
	now += est.Uplink
	finishOf := make(map[string]time.Duration)
	var last time.Duration = now
	for _, t := range order[est.SplitAfter:] {
		ready := now
		for _, dep := range t.Deps {
			if f, ok := finishOf[dep]; ok && f > ready {
				ready = f
			}
		}
		_, finish, err := site.Submit(ready, t.Class, t.GFLOP)
		if err != nil {
			return 0, err
		}
		finishOf[t.ID] = finish
		if finish > last {
			last = finish
		}
	}
	e.spentBytes += est.BytesSent
	return last + est.Downlink, nil
}

// bestSiteAt is the best-site search EstimatePipeline runs for a split
// pipeline, at any split, the split range check included.
func (e *Engine) bestSiteAt(dag *tasks.DAG, splitAfter int, now time.Duration) Estimate {
	call := e.newSplitCall(dag, dag.Compiled(), splitAfter, now)
	return e.bestSite(&call, nil)
}

// naiveEstimateBestSite is the best-site search as its contract reads: every
// registered site estimated by naiveEstimateSite, the first of the smallest
// feasible totals, else the first site's estimate, else "no sites".
func (e *Engine) naiveEstimateBestSite(dag *tasks.DAG, splitAfter int, now time.Duration) Estimate {
	best := Estimate{Reason: "no sites"}
	for i, site := range e.sites {
		est := e.naiveEstimateSite(dag, site, splitAfter, now)
		if i == 0 || est.Feasible && (!best.Feasible || est.Total < best.Total) {
			best = est
		}
	}
	return best
}

// naiveNextRemote is the resilient ladder's next-site search as it was:
// Estimates — on-board execution plus a full offload to every registered
// site, each estimated on its own (naiveEstimateSite here) and stably
// sorted feasible first by total — then the first feasible remote
// destination tried does not name.
func (e *Engine) naiveNextRemote(dag *tasks.DAG, t time.Duration, tried map[string]bool) (Estimate, bool) {
	if dag == nil || dag.Validate() != nil {
		return Estimate{}, false
	}
	ests := []Estimate{e.EstimateOnboard(dag, t)}
	for _, s := range e.sites {
		ests = append(ests, e.naiveEstimateSite(dag, s, 0, t))
	}
	sort.SliceStable(ests, func(i, j int) bool {
		if ests[i].Feasible != ests[j].Feasible {
			return ests[i].Feasible
		}
		return ests[i].Total < ests[j].Total
	})
	for _, cand := range ests {
		if !cand.Feasible || cand.Dest == OnboardName || tried[cand.Dest] {
			continue
		}
		return cand, true
	}
	return Estimate{}, false
}
