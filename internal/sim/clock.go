// Package sim provides a deterministic discrete-event simulation kernel.
//
// All OpenVDAP latency, energy, and loss measurements are taken against a
// virtual clock so that experiments are reproducible and fast: simulating a
// five-minute drive takes milliseconds of wall time. The kernel offers an
// event queue with stable FIFO ordering for simultaneous events, a seeded
// random source, and a small process abstraction for periodic activities.
package sim

import (
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. The zero value starts at time zero.
//
// Clock has a single-writer contract: only the simulation loop may call
// Set, but Now is safe to call from any goroutine (the REST tier reads
// virtual time concurrently with a live run). The stored time is an atomic
// cell, so readers never observe a torn value.
type Clock struct {
	now atomic.Int64 // time.Duration bits
}

// Now returns the current virtual time as an offset from simulation start.
// Safe for concurrent use.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Set jumps the clock to t if t is later than the current time. Single
// writer only.
func (c *Clock) Set(t time.Duration) {
	if int64(t) > c.now.Load() {
		c.now.Store(int64(t))
	}
}
