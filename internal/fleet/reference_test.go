package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/edgeos"
	"repro/internal/offload"
)

// referenceRound is the executor's contention model written out with no
// lanes, no goroutines and no reused buffers: advance the fault plan once,
// let every vehicle decide in index order against frozen sites (finishing
// on-board decisions on the spot), then commit the offloading ones in
// index order and fold the outcomes. A non-tolerant round reports the
// first erroring vehicle and aggregates only the vehicles before it, after
// the whole round has run.
func referenceRound(f *Fleet, service string, now time.Duration, tolerant bool) (RoundResult, error) {
	if inj := f.Faults(); inj != nil {
		inj.AdvanceTo(now)
	}
	vehicles := f.Vehicles()
	prepared := make([]*edgeos.PreparedInvocation, len(vehicles))
	results := make([]edgeos.InvocationResult, len(vehicles))
	errs := make([]error, len(vehicles))

	for _, s := range f.Sites() {
		s.Freeze()
	}
	for i, v := range vehicles {
		p := v.Manager.PrepareInvoke(service, now)
		if p.Local() {
			results[i], errs[i] = v.Manager.CommitInvoke(p)
			continue
		}
		prepared[i] = p
	}
	for _, s := range f.Sites() {
		s.Unfreeze()
	}
	for i, p := range prepared {
		if p != nil {
			results[i], errs[i] = vehicles[i].Manager.CommitInvoke(p)
		}
	}

	n := len(vehicles)
	var firstErr error
	if !tolerant {
		for i, err := range errs {
			if err != nil {
				n, firstErr = i, fmt.Errorf("%s: %w", vehicles[i].Name, err)
				break
			}
		}
	}
	var rr RoundResult
	offloaded := 0
	for i := 0; i < n; i++ {
		rr.Invocations++
		res := results[i]
		switch {
		case errs[i] != nil:
			rr.Failures++
			continue
		case res.HungUp:
			rr.HangUps++
			continue
		}
		rr.Total += res.Latency
		if res.Latency > rr.Max {
			rr.Max = res.Latency
		}
		if res.Dest != offload.OnboardName {
			offloaded++
		}
		if res.DeadlineMet {
			rr.DeadlineHits++
		}
		if res.FellBackTo != "" {
			rr.Fallbacks++
		}
		if res.Degraded {
			rr.Degraded++
		}
	}
	if done := rr.Invocations - rr.HangUps - rr.Failures; done > 0 {
		rr.OffloadShare = float64(offloaded) / float64(done)
	}
	return rr, firstErr
}

// rawChaosConfig is chaosConfig without the resilience policy: a vehicle
// whose site faults mid-commit fails outright.
func rawChaosConfig(vehicles, shards int, seed int64) Config {
	cfg := chaosConfig(vehicles, shards, seed)
	cfg.Resilience = nil
	return cfg
}

// TestShardedMatchesNaiveReference: "S = 1 is the serial case". Twin
// fleets from one seed, one driven by referenceRound and one by the
// executor at S = 1 and S = 3, must agree on every round's RoundResult
// (and error) and on the merged telemetry render at the end. Clean worlds
// take the non-tolerant entry point, faulted worlds the tolerant one; the
// raw world has faults and no resilience policy, so vehicles fail outright.
func TestShardedMatchesNaiveReference(t *testing.T) {
	const rounds, seed = 10, 42
	raw := diffWorld{name: "raw", vehicles: 21, cfg: rawChaosConfig}
	for _, world := range append([]diffWorld{raw}, diffWorlds...) {
		t.Run(world.name, func(t *testing.T) {
			ref := world.build(t, 1, seed)
			ref.InstrumentSharded(false)
			tolerant := ref.Faults() != nil
			var want []RoundResult
			var sawOffload, sawFailure bool
			for r := 0; r < rounds; r++ {
				rr, err := referenceRound(ref, "kidnapper-search", time.Duration(r)*400*time.Millisecond, tolerant)
				if err != nil {
					t.Fatalf("reference round %d: %v", r, err)
				}
				sawOffload = sawOffload || rr.OffloadShare > 0
				sawFailure = sawFailure || rr.Failures > 0
				want = append(want, rr)
			}
			if !sawOffload {
				t.Fatal("no reference round offloaded: the commit phase was never exercised")
			}
			if world.name == "raw" && !sawFailure {
				t.Fatal("the raw faulted world never failed a vehicle")
			}
			reg, _ := ref.MergedTelemetry()
			wantReg := reg.Render()

			for _, shards := range []int{1, 3} {
				f := world.build(t, shards, seed)
				f.InstrumentSharded(false)
				invoke := f.ShardedInvokeAll
				if tolerant {
					invoke = f.ShardedInvokeAllTolerant
				}
				for r := 0; r < rounds; r++ {
					got, err := invoke("kidnapper-search", time.Duration(r)*400*time.Millisecond)
					if err != nil {
						t.Fatalf("shards=%d round %d: %v", shards, r, err)
					}
					if !reflect.DeepEqual(got, want[r]) {
						t.Fatalf("shards=%d round %d:\n got %+v\nwant %+v", shards, r, got, want[r])
					}
				}
				reg, _ := f.MergedTelemetry()
				if gotReg := reg.Render(); gotReg != wantReg {
					t.Fatalf("shards=%d merged telemetry diverged from the reference:\n%s\nvs\n%s", shards, gotReg, wantReg)
				}
			}
		})
	}
}

// TestShardedMatchesNaiveReferenceOnError: in the raw faulted world the
// non-tolerant entry point and the reference name the same first erroring
// vehicle and return the same truncated aggregate.
func TestShardedMatchesNaiveReferenceOnError(t *testing.T) {
	build := func(shards int) *Fleet {
		f, err := New(rawChaosConfig(21, shards, 42))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ref, f := build(1), build(3)
	for r := 0; r < 40; r++ {
		now := time.Duration(r) * 400 * time.Millisecond
		want, wantErr := referenceRound(ref, "kidnapper-search", now, false)
		got, gotErr := f.ShardedInvokeAll("kidnapper-search", now)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("round %d: got %+v, %v; want %+v, %v", r, got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			return
		}
	}
	t.Fatal("no round errored: the faulted world never failed a commit")
}
