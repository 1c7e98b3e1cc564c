package fleet

import (
	"testing"
	"time"

	"repro/internal/edgeos"
	"repro/internal/tasks"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Vehicles: 0}); err == nil {
		t.Fatal("zero vehicles accepted")
	}
}

func TestFleetSharedInfrastructure(t *testing.T) {
	f, err := New(Config{Vehicles: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Vehicles()) != 3 {
		t.Fatalf("vehicles = %d", len(f.Vehicles()))
	}
	// Every vehicle's engine references the same site objects.
	base := f.Vehicles()[0].Engine.Sites()
	for _, v := range f.Vehicles()[1:] {
		sites := v.Engine.Sites()
		if len(sites) != len(base) {
			t.Fatal("site lists differ")
		}
		for i := range sites {
			if sites[i] != base[i] {
				t.Fatal("sites are not shared objects")
			}
		}
	}
}

func TestInvokeAllRunsEveryVehicle(t *testing.T) {
	f, err := New(Config{Vehicles: 4})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := f.ShardedInvokeAll("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Invocations != 4 || rr.HangUps != 0 {
		t.Fatalf("round = %+v", rr)
	}
	if rr.Mean() <= 0 || rr.Max < rr.Mean() {
		t.Fatalf("latency stats = mean %v max %v", rr.Mean(), rr.Max)
	}
}

// TestContentionRaisesLatency: a big fleet hammering a heavy DNN service
// must see worse shared-edge latency than a lone vehicle.
func TestContentionRaisesLatency(t *testing.T) {
	heavy := func() *edgeos.Service {
		return &edgeos.Service{
			Name:     "heavy-detect",
			Priority: edgeos.PrioritySafety,
			DAG:      &tasks.DAG{Name: "h", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}},
			Image:    []byte("h"),
			// Offload-only so contention cannot hide on board.
			Pipelines: []edgeos.Pipeline{{Name: "offload-all", SplitAfter: 0}},
		}
	}
	run := func(n int) time.Duration {
		f, err := New(Config{Vehicles: n, RSUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range f.Vehicles() {
			if err := v.Manager.Register(heavy()); err != nil {
				t.Fatal(err)
			}
		}
		var last time.Duration
		for round := 0; round < 4; round++ {
			rr, err := f.ShardedInvokeAll("heavy-detect", 0)
			if err != nil {
				t.Fatal(err)
			}
			last = rr.Max
		}
		return last
	}
	solo := run(1)
	crowded := run(12)
	if crowded <= solo {
		t.Fatalf("12-vehicle max latency %v not above solo %v", crowded, solo)
	}
}

// TestElasticRoutesAroundContention: with free pipeline choice, a crowded
// fleet shifts work back on board instead of queueing at the edge.
func TestElasticRoutesAroundContention(t *testing.T) {
	f, err := New(Config{Vehicles: 12, RSUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.ShardedInvokeAll("kidnapper-search", 0)
	if err != nil {
		t.Fatal(err)
	}
	var last RoundResult
	for round := 1; round < 6; round++ {
		last, err = f.ShardedInvokeAll("kidnapper-search", 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.HangUps > 0 {
		t.Fatalf("hang-ups despite onboard fallback: %+v", last)
	}
	// Offload share must not grow as the edge saturates.
	if last.OffloadShare > first.OffloadShare+0.01 {
		t.Fatalf("offload share grew under contention: %.2f -> %.2f",
			first.OffloadShare, last.OffloadShare)
	}
	// And mean latency stays bounded by the onboard path (~54 ms) plus
	// slack.
	if last.Mean() > 150*time.Millisecond {
		t.Fatalf("mean latency %v despite elastic fallback", last.Mean())
	}
}
