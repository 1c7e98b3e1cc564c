package offload

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// Table-driven test: scripted event sequences against expected state
// trajectories. Each step either queries Allow or records an outcome at
// a virtual time, then asserts the resulting state.
func TestBreakerStateMachine(t *testing.T) {
	const (
		allow   = "allow"   // expect Allow == true
		reject  = "reject"  // expect Allow == false
		success = "success" // RecordSuccess
		failure = "failure" // RecordFailure
	)
	type step struct {
		at    time.Duration
		op    string
		state BreakerState // expected state after the step, as of `at`
	}
	cases := []struct {
		name      string
		threshold int
		cooldown  time.Duration
		steps     []step
	}{
		{
			name: "threshold failures open the breaker", threshold: 2, cooldown: time.Second,
			steps: []step{
				{0, allow, BreakerClosed},
				{0, failure, BreakerClosed},
				{10 * time.Millisecond, allow, BreakerClosed},
				{10 * time.Millisecond, failure, BreakerOpen},
				{20 * time.Millisecond, reject, BreakerOpen},
				{900 * time.Millisecond, reject, BreakerOpen},
			},
		},
		{
			name: "success resets the consecutive count", threshold: 2, cooldown: time.Second,
			steps: []step{
				{0, failure, BreakerClosed},
				{0, success, BreakerClosed},
				{0, failure, BreakerClosed},
				{0, success, BreakerClosed},
				{0, allow, BreakerClosed},
			},
		},
		{
			name: "cooldown ages open into half-open; probe success closes", threshold: 1, cooldown: time.Second,
			steps: []step{
				{0, failure, BreakerOpen},
				{time.Second, allow, BreakerHalfOpen}, // the single probe
				{time.Second, reject, BreakerHalfOpen},
				{time.Second, success, BreakerClosed},
				{time.Second, allow, BreakerClosed},
			},
		},
		{
			name: "probe failure re-opens and restarts the cooldown", threshold: 1, cooldown: time.Second,
			steps: []step{
				{0, failure, BreakerOpen},
				{time.Second, allow, BreakerHalfOpen},
				{time.Second, failure, BreakerOpen},
				{1900 * time.Millisecond, reject, BreakerOpen}, // new cooldown from t=1s
				{2 * time.Second, allow, BreakerHalfOpen},
				{2 * time.Second, success, BreakerClosed},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := NewBreaker(tc.threshold, tc.cooldown)
			for i, s := range tc.steps {
				switch s.op {
				case allow:
					if !b.Allow(s.at) {
						t.Fatalf("step %d: Allow(%v) = false, want true", i, s.at)
					}
				case reject:
					if b.Allow(s.at) {
						t.Fatalf("step %d: Allow(%v) = true, want false", i, s.at)
					}
				case success:
					b.RecordSuccess(s.at)
				case failure:
					b.RecordFailure(s.at)
				}
				if b.materialize(s.at); b.state != s.state {
					t.Fatalf("step %d (%s@%v): state = %v, want %v", i, s.op, s.at, b.state, s.state)
				}
			}
		})
	}
}

func TestBreakerConstructorClamps(t *testing.T) {
	b := NewBreaker(0, 0)
	b.RecordFailure(0) // threshold clamped to 1: one failure opens
	if b.materialize(0); b.state != BreakerOpen {
		t.Fatal("threshold 0 not clamped to 1")
	}
	if b.materialize(time.Second); b.state != BreakerHalfOpen {
		t.Fatal("cooldown 0 not clamped to 1s")
	}
}

// breakerTrace replays a deterministic random op sequence and returns the
// decision/state trail while asserting the machine's safety invariants:
// (a) no traffic is ever admitted while open, (b) each half-open episode
// admits exactly one probe before the probe resolves.
func breakerTrace(t *testing.T, rng *sim.RNG, b *Breaker, ops int) []string {
	t.Helper()
	var trail []string
	now := time.Duration(0)
	probesSinceResolve := 0
	for i := 0; i < ops; i++ {
		now += time.Duration(rng.Intn(700)) * time.Millisecond
		b.materialize(now)
		pre := b.state
		switch rng.Intn(3) {
		case 0:
			admitted := b.Allow(now)
			if admitted && pre == BreakerOpen {
				t.Fatalf("op %d: traffic admitted through an open breaker at %v", i, now)
			}
			if pre == BreakerHalfOpen && admitted {
				probesSinceResolve++
				if probesSinceResolve > 1 {
					t.Fatalf("op %d: half-open admitted %d probes before resolution", i, probesSinceResolve)
				}
			}
			trail = append(trail, "allow:"+map[bool]string{true: "y", false: "n"}[admitted])
		case 1:
			b.RecordSuccess(now)
			probesSinceResolve = 0
			trail = append(trail, "success")
		default:
			b.RecordFailure(now)
			probesSinceResolve = 0
			trail = append(trail, "failure")
		}
		b.materialize(now)
		trail = append(trail, b.state.String())
	}
	return trail
}

// Property test (mirrors internal/vcu/property_test.go): randomized
// monotone event sequences never violate the breaker's admission
// invariants, and the machine is deterministic — replaying the identical
// sequence yields an identical decision/state trail.
func TestBreakerPropertiesOnRandomSequences(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		threshold := 1 + trial%4
		cooldown := time.Duration(100+50*trial) * time.Millisecond
		first := breakerTrace(t, sim.NewRNG(int64(trial)), NewBreaker(threshold, cooldown), 200)
		second := breakerTrace(t, sim.NewRNG(int64(trial)), NewBreaker(threshold, cooldown), 200)
		if len(first) != len(second) {
			t.Fatalf("trial %d: replay lengths differ: %d vs %d", trial, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("trial %d: replay diverged at %d: %q vs %q", trial, i, first[i], second[i])
			}
		}
	}
}

// TestBreakerOpensCounter: lifetime open-transition accounting feeds the
// offload.breaker.opened metric.
func TestBreakerOpensCounter(t *testing.T) {
	b := NewBreaker(1, time.Second)
	b.RecordFailure(0)
	if !b.Allow(time.Second) {
		t.Fatal("half-open probe rejected")
	}
	b.RecordFailure(time.Second)
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

// TestBreakerStateNames: each state's name is the tail of its
// flight-recorder event, and a value outside the three states names
// itself instead of indexing past the table.
func TestBreakerStateNames(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
		3: "breaker-state(3)", -1: "breaker-state(-1)",
	} {
		if got := s.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", int(s), got, want)
		}
		if s >= 0 && int(s) < len(breakerEvents) && breakerEvents[s] != "breaker."+want {
			t.Errorf("event for %s is %q", want, breakerEvents[s])
		}
	}
}
