package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sleepUntil waits for due without trusting the Go timer wheel, which on an
// idle process wakes a sleeper up to a millisecond late: it blocks in
// nanosleep until shortly before due and spins the rest.
func sleepUntil(due time.Time) {
	const spin = 200 * time.Microsecond
	if wait := time.Until(due) - spin; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(due) {
	}
}

// issuer performs request k of connection conn and reports whether the
// reply was correct. The load loops know nothing about HTTP, so a test can
// hand them a fake server.
type issuer func(conn, k int) bool

// loopStats is what one load phase measured, merged over its connections.
type loopStats struct {
	Lat       []float64 // ms per op: closed loop from send, open loop from due time
	Lag       []float64 // ms the generator sent after the due time (open loop)
	Attempted int64
	Failed    int64
	Busy      time.Duration // summed over connections: time inside the issuer
	Wall      time.Duration
	EndLag    time.Duration // worst backlog a connection still had when its phase ended
}

func (s *loopStats) merge(o *loopStats) {
	s.Lat = append(s.Lat, o.Lat...)
	s.Lag = append(s.Lag, o.Lag...)
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	s.Busy += o.Busy
	if o.EndLag > s.EndLag {
		s.EndLag = o.EndLag
	}
}

// perConn runs body once per connection, each on its own goroutine, and
// merges what they measured.
func perConn(conns int, body func(conn int, st *loopStats)) *loopStats {
	parts := make([]loopStats, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, &parts[c])
		}(c)
	}
	wg.Wait()
	total := &loopStats{Wall: time.Since(t0)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// closedLoop drives conns connections for dur, each sending its next request
// only when the previous reply is in: the model of on-vehicle apps that wait
// for libvdap's answer. slice, when non-nil, is called every `every` (and
// once at the end) with the ops completed since the last call, from one
// goroutine at a time.
func closedLoop(conns int, dur, every time.Duration, issue issuer, slice func(ops int64)) *loopStats {
	end := time.Now().Add(dur)
	var done atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		if slice == nil {
			return
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				slice(done.Swap(0))
				return
			case <-tick.C:
				slice(done.Swap(0))
			}
		}
	}()
	st := perConn(conns, func(conn int, st *loopStats) {
		for k := 0; ; k++ {
			sent := time.Now()
			if !sent.Before(end) {
				return
			}
			ok := issue(conn, k)
			took := time.Since(sent)
			done.Add(1)
			st.Attempted++
			if !ok {
				st.Failed++
			}
			st.Busy += took
			st.Lat = append(st.Lat, inMS(took))
		}
	})
	close(stop)
	<-stopped
	return st
}

// openLoop sends at a fixed total rate (requests per second) split evenly
// over conns connections, on a schedule that does not wait for the server:
// request k of connection c is due at start + (k*conns + c)/rate. Latency is
// timed from the due time, so a stall is charged to every request it delays,
// and Lag records how late each one was actually sent. idle, when non-nil,
// is told about every sleep (the traced pass records it as a span).
func openLoop(conns int, rate float64, dur time.Duration, issue issuer, idle func(conn int, from, to time.Time)) *loopStats {
	start := time.Now()
	end := start.Add(dur)
	gap := time.Duration(float64(time.Second) / rate) // between consecutive requests of the whole schedule
	return perConn(conns, func(conn int, st *loopStats) {
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k*conns+conn) * gap)
			if !due.Before(end) {
				return
			}
			now := time.Now()
			if now.Before(due) {
				sleepUntil(due)
				woke := time.Now()
				if idle != nil {
					idle(conn, now, woke)
				}
				now = woke
			}
			lag := now.Sub(due)
			ok := issue(conn, k)
			done := time.Now()
			st.Attempted++
			if !ok {
				st.Failed++
			}
			st.Busy += done.Sub(now)
			st.Lag = append(st.Lag, inMS(lag))
			st.Lat = append(st.Lat, inMS(done.Sub(due)))
			st.EndLag = lag
		}
	})
}

// sustains reports whether an open-loop phase kept up: its tail latency from
// due time is within limit and it did not end with a backlog.
func (s *loopStats) sustains(tailPct float64, limit time.Duration) bool {
	if s.Failed > 0 || len(s.Lat) == 0 {
		return false
	}
	lat := summarise(append([]float64(nil), s.Lat...), tailPct)
	return lat.Tail <= inMS(limit) && s.EndLag <= limit
}
