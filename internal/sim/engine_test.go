package sim

import (
	"slices"
	"testing"
	"time"
)

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	e.After(time.Second, func() { fired = append(fired, e.Now()) })
	e.After(3*time.Second, func() { fired = append(fired, e.Now()) })
	e.After(10*time.Second, func() { fired = append(fired, e.Now()) })

	if err := e.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock = %v after RunUntil(5s), want 5s", e.Now())
	}
	if err := e.RunUntil(20 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 3 || fired[2] != 10*time.Second {
		t.Fatalf("fired at %v, want the third event at 10s", fired)
	}
}

func TestEngineClockAdvancesWithEvents(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.After(7*time.Second, func() { at = e.Now() })
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if at != 7*time.Second {
		t.Fatalf("callback saw t=%v, want 7s", at)
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine(1)
	var depths []time.Duration
	var grow func()
	grow = func() {
		depths = append(depths, e.Now())
		if len(depths) < 5 {
			e.After(time.Second, grow)
		}
	}
	e.After(time.Second, grow)
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second}
	if !slices.Equal(depths, want) {
		t.Fatalf("chained events fired at %v, want %v", depths, want)
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	stop, err := e.Every(time.Second, func() { ticks++ })
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	stop()
	if err := e.RunUntil(20 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d after stop, want 10", ticks)
	}
}

// TestEngineEveryStop: stopping a periodic process, from inside its own
// callback or from outside it, ends its ticks, and every other event fires
// in the same order and at the same times as on an engine where no tick was
// ever queued.
func TestEngineEveryStop(t *testing.T) {
	type firing struct {
		id int
		at time.Duration
	}
	// others schedules events at tick instants and between them, each of
	// which chains a follow-up a second later.
	others := func(e *Engine, log *[]firing) {
		for id, at := range []time.Duration{3 * time.Second, 2500 * time.Millisecond, 3 * time.Second, 7 * time.Second, 4 * time.Second} {
			e.At(at, func() {
				*log = append(*log, firing{id, e.Now()})
				e.After(time.Second, func() { *log = append(*log, firing{100 + id, e.Now()}) })
			})
		}
	}
	const deadline = 20 * time.Second
	var want []firing
	ref := NewEngine(1)
	others(ref, &want)
	if err := ref.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		inside bool // the third tick stops its own process
		run    func(e *Engine, stop func()) error
	}{
		{"from its own callback", true, func(e *Engine, stop func()) error { return e.RunUntil(deadline) }},
		{"from another event", false, func(e *Engine, stop func()) error {
			e.At(3500*time.Millisecond, stop)
			return e.RunUntil(deadline)
		}},
		{"between runs", false, func(e *Engine, stop func()) error {
			if err := e.RunUntil(3500 * time.Millisecond); err != nil {
				return err
			}
			stop()
			return e.RunUntil(deadline)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			ticks := 0
			var stop func()
			stop, err := e.Every(time.Second, func() {
				ticks++
				if ticks == 3 && tc.inside {
					stop()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []firing
			others(e, &got)
			if err := tc.run(e, stop); err != nil {
				t.Fatal(err)
			}
			if ticks != 3 {
				t.Fatalf("ticks = %d, want 3", ticks)
			}
			if e.Now() != deadline {
				t.Fatalf("clock = %v, want the deadline %v", e.Now(), deadline)
			}
			if len(e.queue.events) != 0 {
				t.Fatalf("%d events left queued, want none", len(e.queue.events))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("other events fired as %v, want %v", got, want)
			}
		})
	}
}

func TestEngineEveryRejectsNonPositive(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.Every(0, func() {}); err == nil {
		t.Fatal("Every(0) succeeded, want error")
	}
	if _, err := e.Every(-time.Second, func() {}); err == nil {
		t.Fatal("Every(-1s) succeeded, want error")
	}
}

func TestEngineEventBudget(t *testing.T) {
	e := NewEngine(1)
	e.budget = 10
	var loop func()
	loop = func() { e.After(time.Second, loop) }
	e.After(time.Second, loop)
	if err := e.RunUntil(time.Hour); err == nil {
		t.Fatal("RunUntil through 3600 events under a budget of 10 succeeded, want budget error")
	}
}

func TestEnginePastScheduleFiresNow(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.After(5*time.Second, func() {
		e.At(time.Second, func() { at = e.Now() }) // in the past relative to t=5s
	})
	if err := e.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if at != 5*time.Second {
		t.Fatalf("past event fired at %v, want 5s (clamped to now)", at)
	}
}

// TestEngineSteadyStateAllocs pins the kernel's hot path at zero
// allocations: once the heap's backing array has grown, scheduling with
// After, firing through RunUntil and a periodic tick allocate nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	ticks := 0
	if _, err := e.Every(time.Millisecond, func() { ticks++ }); err != nil {
		t.Fatal(err)
	}
	batch := func() {
		for i := 0; i < 256; i++ {
			e.After(time.Duration((i*2654435761)%4096)*time.Microsecond, fn)
		}
		if err := e.RunUntil(e.Now() + 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	batch() // grow the heap
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Fatalf("steady-state After + RunUntil: %v allocs per batch, want 0", n)
	}
	// Five ticks in each of 102 batches: the growth batch, AllocsPerRun's
	// warm-up run and its 100 measured runs.
	if ticks != 5*102 {
		t.Fatalf("ticks = %d, want %d", ticks, 5*102)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var vals []float64
		stop, err := e.Every(time.Second, func() { vals = append(vals, e.RNG().Float64()) })
		if err != nil {
			t.Fatalf("Every: %v", err)
		}
		if err := e.RunUntil(10 * time.Second); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		stop()
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
