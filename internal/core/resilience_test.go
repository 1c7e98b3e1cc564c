package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/edgeos"
	"repro/internal/faults"
	"repro/internal/offload"
	"repro/internal/tasks"
)

func chaosConfig(t *testing.T) Config {
	cfg := DefaultConfig(t.TempDir())
	cfg.Seed = 42
	cfg.Faults = &faults.PlanConfig{
		Horizon:             30 * time.Second,
		MeanTimeToOutage:    3 * time.Second,
		MeanOutage:          time.Second,
		MeanTimeToDegrade:   4 * time.Second,
		MeanTimeToExecFault: 2 * time.Second,
	}
	return cfg
}

// TestPlatformFaultWiring: a platform built with a fault plan and given the
// offload resilience policy survives a faulted run end to end — outages
// fire on the simulation kernel, the faults.* telemetry appears next to
// the offload metrics, and no invocation errors escape the resilience
// ladder.
func TestPlatformFaultWiring(t *testing.T) {
	p, err := New(chaosConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.injector == nil {
		t.Fatal("fault injector not exposed")
	}
	if p.injector.Plan().EventCount() == 0 {
		t.Fatal("fault plan is empty under a dense config")
	}
	pol := offload.DefaultPolicy()
	p.Offload().SetResilience(&pol)

	svc := &edgeos.Service{
		Name:     "kidnapper-search",
		Priority: edgeos.PriorityInteractive,
		Deadline: 2 * time.Second,
		DAG:      tasks.ALPR(),
		Image:    []byte("a3"),
	}
	if err := p.InstallService(svc); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		target := time.Duration(i) * 400 * time.Millisecond
		if p.Engine().Now() < target {
			if err := p.Engine().RunUntil(target); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.InvokeService("kidnapper-search")
		if err != nil {
			t.Fatalf("invocation %d at %v: %v", i, p.Engine().Now(), err)
		}
		if !res.HungUp && res.Attempts < 1 {
			t.Fatalf("invocation %d reports no attempts: %+v", i, res)
		}
	}

	snap := p.Metrics().Snapshot()
	if snap.Counters["faults.site_down"] == 0 {
		t.Fatalf("no outages fired on the kernel: %v", snap.Counters)
	}
	if snap.Counters["edgeos.invocations"] == 0 {
		t.Fatal("no invocations recorded")
	}
	if !strings.Contains(p.Report(), "faults.site_down") {
		t.Fatal("fault telemetry missing from the platform report")
	}
}

// TestPlatformFaultPlanDeterministic: equal seeds compile the same fault
// plan and different seeds diverge, as the platform lives it: which
// offload sites are up, every 100 ms of the plan's horizon.
func TestPlatformFaultPlanDeterministic(t *testing.T) {
	upTimeline := func(seed int64) string {
		cfg := chaosConfig(t)
		cfg.Seed = seed
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var b strings.Builder
		for at := time.Duration(0); at <= cfg.Faults.Horizon; at += 100 * time.Millisecond {
			if err := p.Engine().RunUntil(at); err != nil {
				t.Fatal(err)
			}
			for _, s := range p.Offload().Sites() {
				fmt.Fprint(&b, s.Available(), " ")
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	a := upTimeline(42)
	if !strings.Contains(a, "false") {
		t.Fatal("no site went down under a dense fault plan")
	}
	if a != upTimeline(42) {
		t.Fatal("same seed produced different fault plans")
	}
	if a == upTimeline(43) {
		t.Fatal("different seeds produced identical fault plans")
	}
}
