package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/hardware"
	"repro/internal/huffman"
	"repro/internal/obs"
	"repro/internal/vcu"
)

// Probes time direct calls to a layer's public entry points, for layers that
// sit below a boundary the benchmark cannot put a span inside (offload, vcu,
// tasks and xedge beneath edgeos.PrepareInvoke; ddi beneath libvdap). They
// run on a world of their own, built like the measured one and fed the
// workload's own inputs, so their side effects never touch a measured world.

// probe calls fn n times and returns nanoseconds and heap objects per call.
func probe(n int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	if n < 1 {
		n = 1
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	obj0 := s[0].Value.Uint64()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	wall := time.Since(t0)
	metrics.Read(s)
	return float64(wall) / float64(n), float64(s[0].Value.Uint64()-obj0) / float64(n)
}

// fleetProbes fills the offload.*, vcu.*, tasks.*, xedge.*, telemetry.* and
// obs.* probe metrics from a freshly warmed probe world.
func fleetProbes(ctx *runCtx, chaos bool, L map[string]float64) error {
	w, err := newFleetWorld(ctx, chaos, 1)
	if err != nil {
		return err
	}
	if _, err := w.warmUp(ctx, nil, false); err != nil {
		return err
	}
	now, n := w.now(), ctx.sc.ProbeCalls
	if inj := w.f.Faults(); inj != nil {
		inj.AdvanceTo(now)
	}
	svc, err := w.vehicles[0].Manager.Service(fleetService)
	if err != nil {
		return err
	}
	dag := svc.DAG
	veh := func(i int) int { return i % len(w.vehicles) }
	sites := w.f.Sites()

	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	L["offload.decide.ns_per_call"], L["offload.decide.allocs_per_call"] = probe(n, func(i int) {
		_, _, err := w.vehicles[veh(i)].Engine.Decide(dag, now)
		keep(err)
	})
	L["offload.estimate_site.ns_per_call"], _ = probe(n, func(i int) {
		w.vehicles[veh(i)].Engine.EstimateSite(dag, sites[i%len(sites)], 0, now)
	})
	L["offload.estimate_onboard.ns_per_call"], _ = probe(n, func(i int) {
		w.vehicles[veh(i)].Engine.EstimateOnboard(dag, now)
	})
	L["tasks.topo_order.ns_per_call"], L["tasks.topo_order.allocs_per_call"] = probe(n, func(int) {
		_, err := dag.TopoOrder()
		keep(err)
	})
	L["tasks.critical_path.ns_per_call"], _ = probe(n, func(int) {
		_, err := dag.CriticalPathGFLOP()
		keep(err)
	})

	// The vehicle's VCU, assembled the way fleet.New assembles it.
	mhep, err := vcu.DefaultVCU()
	if err != nil {
		return err
	}
	dsf, err := vcu.NewDSF(mhep, vcu.GreedyEFT{})
	if err != nil {
		return err
	}
	L["vcu.plan.ns_per_call"], L["vcu.plan.allocs_per_call"] = probe(n, func(int) {
		_, err := dsf.Plan(dag, now)
		keep(err)
	})
	L["vcu.run.ns_per_call"], _ = probe(n/4, func(int) {
		_, err := dsf.Run(dag, now)
		keep(err)
	})

	// The heaviest task of the service is what a site is asked to run.
	task := dag.Tasks[0]
	for _, t := range dag.Tasks {
		if t.GFLOP > task.GFLOP {
			task = t
		}
	}
	L["xedge.estimate_exec.ns_per_call"], _ = probe(n, func(i int) {
		sites[i%len(sites)].EstimateExec(now, task.Class, task.GFLOP)
	})

	// Telemetry and observability read paths, over what the warm-up emitted.
	reg, _ := w.f.MergedTelemetry()
	L["telemetry.snapshot.ns_per_call"], _ = probe(n/10, func(int) { reg.Snapshot() })
	L["telemetry.render.ns_per_call"], _ = probe(n/10, func(int) { _ = reg.Render() })
	if _, ok := L["obs.sampler_tick.ns_per_call"]; !ok {
		sp := obs.NewSampler(obs.NewSeriesStore(0), 0)
		if err := w.f.WatchTelemetry(sp); err != nil {
			return err
		}
		L["obs.sampler_tick.ns_per_call"], _ = probe(n/50, func(i int) {
			sp.SampleAt(now + time.Duration(i)*time.Millisecond)
		})
	}
	if w.sampler != nil {
		store := w.sampler.Store()
		L["obs.series_payload.ns_per_call"], _ = probe(n/50, func(int) { store.Payload(-1) })
	}
	if rec := w.f.MergedFlightRecorder(); rec != nil {
		L["obs.recorder_export.ns_per_call"], _ = probe(n/10, func(int) { rec.Events() })
	}

	// Mutating probes last: they reserve capacity on the probe world.
	L["offload.execute.ns_per_call"], _ = probe(n/4, func(i int) {
		eng := w.vehicles[veh(i)].Engine
		est, _, err := eng.Decide(dag, now)
		if err != nil {
			keep(err)
			return
		}
		// Only Execute is the probe; Decide is subtracted below.
		_, err = eng.Execute(dag, est, now)
		keep(err)
	})
	L["offload.execute.ns_per_call"] -= L["offload.decide.ns_per_call"]
	if L["offload.execute.ns_per_call"] < 0 {
		L["offload.execute.ns_per_call"] = 0
	}
	L["xedge.submit.ns_per_call"], _ = probe(n, func(i int) {
		s := sites[i%len(sites)]
		if !s.Available() {
			return
		}
		_, _, err := s.Submit(now, hardware.DNNInference, 1)
		keep(err)
	})
	if probeErr != nil && !chaos {
		// A faulted world may legitimately refuse a probe call.
		return fmt.Errorf("layer probe: %w", probeErr)
	}
	return nil
}

// huffmanProbes measures the block codec on the payload bytes of one slab of
// the workload's own corpus: what a seal encodes and a cold scan decodes.
func huffmanProbes(ctx *runCtx, spacing time.Duration, L map[string]float64) error {
	recs := newCorpus(ctx.seed, spacing).fill(ctx.sc.HuffmanBlock)
	var block []byte
	for i := range recs {
		block = append(block, recs[i].Payload...)
	}
	var enc []byte
	var err error
	reps := 8
	ns, _ := probe(reps, func(int) {
		enc, err = huffman.AppendEncode(enc[:0], block)
	})
	if err != nil {
		return err
	}
	mb := float64(len(block)) / 1e6
	L["huffman.encode.mb_per_s"] = mb / (ns / 1e9)
	var dec []byte
	ns, _ = probe(reps, func(int) {
		dec, err = huffman.AppendDecode(dec[:0], enc)
	})
	if err != nil {
		return err
	}
	if string(dec) != string(block) {
		return fmt.Errorf("huffman probe: decode(encode(block)) differs from block")
	}
	L["huffman.decode.mb_per_s"] = mb / (ns / 1e9)
	return nil
}
