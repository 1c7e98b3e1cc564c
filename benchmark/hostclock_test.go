package main

import (
	"testing"
	"time"
)

func TestGrantedTakesOutStolenTime(t *testing.T) {
	for _, c := range []struct {
		name         string
		busy, stolen uint64
		wall, want   time.Duration
	}{
		{"nothing stolen", 100, 0, time.Second, time.Second},
		{"no counters", 0, 0, time.Second, time.Second},
		{"one thread, half of its CPU stolen", 50, 50, time.Second, 500 * time.Millisecond},
		{"two busy CPUs, a quarter of each stolen", 150, 50, time.Second, 750 * time.Millisecond},
		// One thread that waits for the disk 70% of the time wanted 30 ticks
		// of CPU and lost 10 of them: the second took 100 ms longer.
		{"mostly waiting for I/O", 20, 10, time.Second, 900 * time.Millisecond},
	} {
		if got := (hostTicks{c.busy, c.stolen}).granted(c.wall); got != c.want {
			t.Errorf("%s: granted(%v) = %v, want %v", c.name, c.wall, got, c.want)
		}
	}
}

func TestMarkFoldsShortAndEmptySlices(t *testing.T) {
	m := newMeter()
	m.cur = sliceStats{wall: 400 * time.Millisecond, host: hostTicks{40, 0}}
	m.mark(4000)
	m.cur = sliceStats{wall: 30 * time.Millisecond, host: hostTicks{2, 1}}
	m.mark(300) // shorter than ten clock ticks: joins the first slice
	m.cur = sliceStats{wall: 200 * time.Millisecond}
	m.mark(0) // time without a completed op is not dropped
	if len(m.slices) != 1 {
		t.Fatalf("%d slices, want 1", len(m.slices))
	}
	if s := m.slices[0]; s.ops != 4300 || s.wall != 630*time.Millisecond || s.host != (hostTicks{42, 1}) {
		t.Errorf("folded slice %+v", s)
	}
	m.cur = sliceStats{wall: 400 * time.Millisecond, host: hostTicks{20, 20}}
	m.mark(4000)
	if len(m.slices) != 2 {
		t.Fatalf("%d slices, want 2", len(m.slices))
	}
	ms := []float64{100, 100}
	m.grantLast(ms)
	if ms[0] != 50 || ms[1] != 50 {
		t.Errorf("grantLast over a half-stolen slice gives %v, want 50s", ms)
	}
}

// The rates are the window's totals: a slowdown confined to one slice (a slow
// merge at the end of a window, rounds under a fault) moves them by its share.
func TestRatesCountEverySlice(t *testing.T) {
	m := newMeter()
	for i := 0; i < 9; i++ {
		m.cur = sliceStats{wall: time.Second, cpu: time.Second, objects: 1000, bytes: 1024 * 1000}
		m.mark(1000)
	}
	m.cur = sliceStats{wall: 11 * time.Second, cpu: 11 * time.Second, objects: 1000, bytes: 1024 * 1000}
	m.mark(1000) // one slice in ten takes eleven times as long: the window takes twice as long
	ops, cpu, objs, kb := m.rates()
	if ops != 500 || cpu != 2000 || objs != 1 || kb != 1 {
		t.Errorf("rates() = %v op/s, %v ms/kop, %v objects/op, %v KB/op; want 500, 2000, 1, 1", ops, cpu, objs, kb)
	}
}

func TestReadHostTicksAdvance(t *testing.T) {
	a := readHostTicks()
	if a.busy == 0 {
		t.Skip("no /proc/stat on this platform")
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
	}
	if b := readHostTicks(); b.busy+b.stolen <= a.busy+a.stolen {
		t.Errorf("neither busy nor stolen ticks advanced over 50 ms of spinning: %+v -> %+v", a, b)
	}
}
