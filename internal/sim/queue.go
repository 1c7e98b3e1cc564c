package sim

import "time"

// event is a callback scheduled at a virtual time.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
}

// before orders events by firing time, then insertion sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// queue is a 4-ary min-heap of events ordered by (at, seq): earlier time
// first, FIFO among equal times — the order seeded simulations rely on for
// byte-identical trajectories. Events are stored by value, so once the
// backing array has grown push and pop allocate nothing.
//
// The zero value is ready to use.
type queue struct {
	events []event
	seq    uint64
}

// push schedules fn at virtual time at.
func (q *queue) push(at time.Duration, fn func()) {
	q.seq++
	ev := event{at: at, seq: q.seq, fn: fn}
	q.events = append(q.events, ev)
	i := len(q.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q.events[parent]) {
			break
		}
		q.events[i] = q.events[parent]
		i = parent
	}
	q.events[i] = ev
}

// peek returns the firing time of the earliest event. ok is false when the
// queue is empty.
func (q *queue) peek() (at time.Duration, ok bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].at, true
}

// pop removes and returns the earliest event; the queue must not be empty.
// The vacated slot is zeroed, so a fired event never pins its callback.
func (q *queue) pop() event {
	root := q.events[0]
	n := len(q.events) - 1
	last := q.events[n]
	q.events[n] = event{}
	q.events = q.events[:n]
	if n == 0 {
		return root
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if q.events[c].before(&q.events[best]) {
				best = c
			}
		}
		if !q.events[best].before(&last) {
			break
		}
		q.events[i] = q.events[best]
		i = best
	}
	q.events[i] = last
	return root
}
