package main

import (
	"testing"
	"time"
)

// A server that stalls once must inflate the latency of the requests that
// were due during the stall: the open loop times them from their due time,
// not from when the stalled connection finally got to send them. The
// thresholds leave room for a host that stalls the test itself for tens of
// milliseconds.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		rate    = 200.0 // one request every 5 ms on one connection
		gap     = 5 * time.Millisecond
		stallAt = 20
		stall   = 300 * time.Millisecond
		slack   = 50.0 // ms
	)
	issue := func(conn, k int) bool {
		if k == stallAt {
			time.Sleep(stall)
		}
		return true
	}
	st := openLoop(1, rate, time.Second, issue, nil)
	if st.Attempted != 200 || st.Failed != 0 {
		t.Fatalf("attempted %d, failed %d; want every one of the 200 scheduled requests sent", st.Attempted, st.Failed)
	}
	// Request stallAt+k was due k gaps into the stall: it waited for the rest.
	for _, k := range []int{2, 10, 30} {
		want := inMS(stall - time.Duration(k)*gap)
		if got := st.Lat[stallAt+k]; got < want-slack/10 {
			t.Errorf("request due %v into a %v stall has latency %.1fms from its due time, want at least %.1fms; the stall was hidden", time.Duration(k)*gap, stall, got, want)
		}
		if got := st.Lag[stallAt+k]; got < want-slack/10 {
			t.Errorf("request due %v into the stall was sent %.1fms late, want at least %.1fms", time.Duration(k)*gap, got, want)
		}
	}
	// Before the stall, and once the backlog has drained, latency is small.
	if got := median(st.Lat[:stallAt]); got > slack {
		t.Errorf("requests before the stall have a median latency of %.1fms", got)
	}
	if got := median(st.Lat[len(st.Lat)-20:]); got > slack {
		t.Errorf("the last requests, long after the stall, still have a median latency of %.1fms: the backlog never drained", got)
	}
	if st.sustains(99, 100*time.Millisecond) {
		t.Error("a run with a 300ms stall must not count as sustaining a 100ms p99")
	}

	// The same server under a closed loop hides the stall from every
	// request but one: that is why the tail comes from the open loop.
	cl := closedLoop(1, stall+100*time.Millisecond, 0, issue, nil)
	slow := 0
	for _, ms := range cl.Lat {
		if ms > inMS(stall)/2 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop saw %d slow requests, want exactly the stalled one", slow)
	}
}

func TestClosedLoopSlicesAccountForEveryOp(t *testing.T) {
	var sliced int64
	slices := 0
	st := closedLoop(2, 100*time.Millisecond, 10*time.Millisecond, func(conn, k int) bool {
		time.Sleep(time.Millisecond)
		return true
	}, func(ops int64) {
		sliced += ops
		slices++
	})
	if sliced != st.Attempted || slices < 5 {
		t.Errorf("%d slices saw %d ops, the loop attempted %d", slices, sliced, st.Attempted)
	}
}

func TestOpenLoopSplitsTheScheduleOverConnections(t *testing.T) {
	var perConn [2]int
	st := openLoop(2, 500, 100*time.Millisecond, func(conn, k int) bool {
		perConn[conn]++ // each connection has its own goroutine and its own counter
		return conn == 0
	}, nil)
	if st.Attempted != 50 || perConn[0] != 25 || perConn[1] != 25 {
		t.Errorf("attempted %d, per connection %v; want 50 split 25/25", st.Attempted, perConn)
	}
	if st.Failed != 25 {
		t.Errorf("failed %d, want the 25 requests connection 1's issuer rejected", st.Failed)
	}
}
