package sim

import (
	"fmt"
	"time"
)

// eventBudget caps the number of events one RunUntil call processes, as a
// runaway guard.
const eventBudget = 50_000_000

// Engine drives a discrete-event simulation: it repeatedly pops the earliest
// event, advances the virtual clock to it, and runs its callback.
//
// Engine is single-threaded; callbacks run on the caller's goroutine.
type Engine struct {
	clock  Clock
	queue  queue
	rng    *RNG
	budget int // eventBudget; tests lower it
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always yields the same simulation trajectory.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed), budget: eventBudget}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.clock.Now() }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// At schedules fn at absolute virtual time t. Times in the past fire
// immediately at the current time (the clock never rewinds).
func (e *Engine) At(t time.Duration, fn func()) {
	e.queue.push(max(t, e.clock.Now()), fn)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) {
	e.queue.push(e.clock.Now()+max(d, 0), fn)
}

// Every schedules fn to run now+d, then every d thereafter, until the
// returned stop function is called. d must be positive. The tick already
// queued when stop is called still fires, as a no-op that schedules
// nothing, so every later event keeps its place in the order.
func (e *Engine) Every(d time.Duration, fn func()) (stop func(), err error) {
	if d <= 0 {
		return nil, fmt.Errorf("sim: Every period must be positive, got %v", d)
	}
	halted := false
	var tick func()
	tick = func() {
		if halted {
			return
		}
		fn()
		if !halted {
			e.After(d, tick)
		}
	}
	e.After(d, tick)
	return func() { halted = true }, nil
}

// RunUntil processes events in time order until the queue is empty or the
// next event would fire after deadline. The clock ends at deadline when the
// queue drains early, so successive RunUntil calls see consistent time.
func (e *Engine) RunUntil(deadline time.Duration) error {
	for processed := 0; ; processed++ {
		if processed >= e.budget {
			return fmt.Errorf("sim: event budget %d exhausted at t=%v", e.budget, e.clock.Now())
		}
		if at, ok := e.queue.peek(); !ok || at > deadline {
			e.clock.Set(deadline)
			return nil
		}
		ev := e.queue.pop()
		e.clock.Set(ev.at)
		ev.fn()
	}
}
