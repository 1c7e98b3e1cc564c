package offload

import (
	"fmt"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits all traffic.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects all traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe; its outcome decides
	// whether the breaker closes again or re-opens.
	BreakerHalfOpen
)

// breakerEvents is the flight-recorder event of a transition into each
// state; the state's own name follows the "breaker." prefix, so neither
// name is built per transition.
var breakerEvents = [...]string{
	BreakerClosed:   "breaker.closed",
	BreakerOpen:     "breaker.open",
	BreakerHalfOpen: "breaker.half-open",
}

// String returns the lower-case state name.
func (s BreakerState) String() string {
	if s < 0 || int(s) >= len(breakerEvents) {
		return fmt.Sprintf("breaker-state(%d)", int(s))
	}
	return breakerEvents[s][len("breaker."):]
}

// Breaker is a per-destination circuit breaker timed on the virtual
// clock: `threshold` consecutive failures open it, the open state rejects
// traffic for `cooldown` of virtual time, then a single half-open probe
// decides between closing (probe succeeded) and re-opening (probe
// failed). All transitions are pure functions of the call sequence and
// the virtual times passed in, so breaker behavior is deterministic and
// replayable.
//
// Concurrency: a Breaker belongs to its engine's goroutine; it is not
// safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration

	state    BreakerState
	fails    int           // consecutive failures while closed
	openedAt time.Duration // virtual time the breaker last opened
	probing  bool          // a half-open probe has been admitted and is unresolved
	opens    int           // lifetime count of closed/half-open -> open transitions
	onChange func(from, to BreakerState, now time.Duration)
}

// OnChange registers a callback fired on every real state transition (the
// flight-recorder hook). It runs synchronously on the breaker's goroutine
// and must not call back into the breaker.
func (b *Breaker) OnChange(fn func(from, to BreakerState, now time.Duration)) {
	b.onChange = fn
}

// transition moves the breaker to state to, notifying only when the state
// actually changes.
func (b *Breaker) transition(to BreakerState, now time.Duration) {
	from := b.state
	b.state = to
	if from != to && b.onChange != nil {
		b.onChange(from, to, now)
	}
}

// NewBreaker builds a breaker. Thresholds below 1 are clamped to 1;
// non-positive cooldowns default to one virtual second.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// materialize ages an expired open state into half-open as of now.
func (b *Breaker) materialize(now time.Duration) {
	if b.state == BreakerOpen && now >= b.openedAt+b.cooldown {
		b.transition(BreakerHalfOpen, now)
		b.probing = false
	}
}

// Allow reports whether a request may proceed at now. While half-open it
// admits exactly one probe; further requests are rejected until the probe
// resolves through RecordSuccess or RecordFailure.
func (b *Breaker) Allow(now time.Duration) bool {
	b.materialize(now)
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return false
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// RecordSuccess reports a successful request at now: a half-open probe
// success closes the breaker, and any success resets the consecutive
// failure count.
func (b *Breaker) RecordSuccess(now time.Duration) {
	b.materialize(now)
	b.transition(BreakerClosed, now)
	b.fails = 0
	b.probing = false
}

// RecordFailure reports a failed request at now. The threshold-th
// consecutive failure while closed opens the breaker; a half-open probe
// failure re-opens it immediately.
func (b *Breaker) RecordFailure(now time.Duration) {
	b.materialize(now)
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.open(now)
		}
	case BreakerHalfOpen:
		b.open(now)
	case BreakerOpen:
		// A failure reported while open (caller bypassed Allow): extend
		// the cooldown from the new failure.
		b.openedAt = now
	}
}

func (b *Breaker) open(now time.Duration) {
	b.transition(BreakerOpen, now)
	b.openedAt = now
	b.fails = 0
	b.probing = false
	b.opens++
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int { return b.opens }
