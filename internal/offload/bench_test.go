package offload

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/telemetry"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

// benchWorld mirrors testWorld for benchmarks: a vehicle DSF, an in-range
// RSU, and the cloud.
func benchWorld(b *testing.B, speedMS float64) *Engine {
	b.Helper()
	m, err := vcu.DefaultVCU()
	if err != nil {
		b.Fatal(err)
	}
	dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
	if err != nil {
		b.Fatal(err)
	}
	road, err := geo.NewRoad(10000)
	if err != nil {
		b.Fatal(err)
	}
	rsu, err := xedge.NewRSU(geo.Station{ID: "rsu-0", Kind: geo.RSU, Pos: geo.Point{X: 100}, Radius: 50000})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := xedge.NewCloud()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(dsf, geo.Mobility{Road: road, SpeedMS: speedMS}, []*xedge.Site{rsu, cl})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkDecide measures one full destination comparison (onboard + RSU +
// cloud estimates, sorted) — the per-invocation planning cost.
func BenchmarkDecide(b *testing.B) {
	eng := benchWorld(b, 15)
	dag := tasks.ALPR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Decide(dag, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideExecute measures the instrumented decide+execute loop with
// live telemetry — the macro hot path of every fleet experiment.
func BenchmarkDecideExecute(b *testing.B) {
	eng := benchWorld(b, 15)
	eng.Instrument(obs.Scope{Metrics: telemetry.NewRegistry()})
	dag := tasks.ALPR()
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, _, err := eng.Decide(dag, now)
		if err != nil {
			b.Fatal(err)
		}
		done, err := eng.Execute(dag, est, now)
		if err != nil {
			b.Fatal(err)
		}
		if done > now {
			now = done
		}
		now += 50 * time.Millisecond
	}
}
