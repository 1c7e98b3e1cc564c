package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// hostTicks are counters of /proc/stat's aggregate cpu line, in clock ticks:
// busy is time the guest's CPUs ran something, stolen is time a CPU had
// something to run and the hypervisor ran another guest instead.
type hostTicks struct{ busy, stolen uint64 }

// userHZ is the unit of /proc/stat: the kernel ABI fixes it at 100 per second.
const userHZ = 100

// readHostTicks reads the counters; both are 0 where /proc/stat is absent,
// which leaves every time as the wall clock measured it.
func readHostTicks() hostTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	defer f.Close()
	var buf [256]byte
	n, _ := f.Read(buf[:])
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	at := func(i int) uint64 { v, _ := strconv.ParseUint(fields[i], 10, 64); return v }
	return hostTicks{busy: at(1) + at(2) + at(3) + at(6) + at(7), stolen: at(8)}
}

func (h hostTicks) sub(o hostTicks) hostTicks {
	return hostTicks{h.busy - o.busy, h.stolen - o.stolen}
}

func (h hostTicks) add(o hostTicks) hostTicks {
	return hostTicks{h.busy + o.busy, h.stolen + o.stolen}
}

// granted scales wall, an interval during which the counters advanced by h,
// down by the share of it that was stolen. On a shared host the hypervisor
// takes a tenth of a busy CPU in a quiet minute and half of it in a busy one,
// in bursts of seconds, and a pure-CPU loop's rate follows 1 - stolen share to
// a few percent; the program did not run during that time, so charging it to
// the program would make every time-based metric a measure of the neighbours.
// Stolen ticks are summed over the CPUs, so they are divided by how many CPUs
// wanted to run on average, but by no less than one: a single thread that also
// waits for a disk loses every stolen tick.
func (h hostTicks) granted(wall time.Duration) time.Duration {
	if h.stolen == 0 {
		return wall
	}
	demand := max(float64(h.busy+h.stolen), wall.Seconds()*userHZ)
	return time.Duration(float64(wall) * (1 - float64(h.stolen)/demand))
}

// stopwatch times an interval outside the meter (a set-up) on the same clock.
type stopwatch struct {
	t0    time.Time
	host0 hostTicks
}

func startStopwatch() stopwatch { return stopwatch{time.Now(), readHostTicks()} }

// seconds is the granted time since the stopwatch started.
func (w stopwatch) seconds() float64 {
	return readHostTicks().sub(w.host0).granted(time.Since(w.t0)).Seconds()
}
