package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sliceStats is what the meter saw during one slice of the measured window.
type sliceStats struct {
	ops     int64
	wall    time.Duration
	cpu     time.Duration
	objects uint64
	bytes   uint64
	host    hostTicks
}

// minSlice is the shortest slice the meter keeps on its own: ten clock ticks.
const minSlice = 10 * time.Second / userHZ

func (s sliceStats) plus(o sliceStats) sliceStats {
	return sliceStats{
		ops: s.ops + o.ops, wall: s.wall + o.wall, cpu: s.cpu + o.cpu,
		objects: s.objects + o.objects, bytes: s.bytes + o.bytes, host: s.host.add(o.host),
	}
}

// granted is the slice's wall clock less what the hypervisor stole from it.
func (s sliceStats) granted() time.Duration { return s.host.granted(s.wall) }

// meter accumulates granted time (hostclock.go), process CPU and heap
// allocation over the measured window of a workload, cut into slices of equal
// work (mark closes one). The end-to-end rates come from the window's totals
// (rates); the slices say how the rate was distributed over the window, in a
// run's notes, and give a fleet round the granted share of its own stretch of
// the window (grantLast). The meter can be
// paused, so that a single-threaded driver can generate its next inputs
// without charging them to the program; a nil meter meters nothing. Reads are
// a getrusage call, a runtime/metrics read and the first line of /proc/stat:
// no stop-the-world.
type meter struct {
	slices []sliceStats
	cur    sliceStats

	running bool
	t0      time.Time
	cpu0    time.Duration
	host0   hostTicks
	obj0    uint64
	byt0    uint64
	sample  [2]metrics.Sample
}

func newMeter() *meter {
	m := &meter{}
	m.sample[0].Name = "/gc/heap/allocs:objects"
	m.sample[1].Name = "/gc/heap/allocs:bytes"
	return m
}

// processCPU is user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func (m *meter) allocs() (objects, bytes uint64) {
	metrics.Read(m.sample[:])
	return m.sample[0].Value.Uint64(), m.sample[1].Value.Uint64()
}

func (m *meter) resume() {
	if m == nil {
		return
	}
	m.obj0, m.byt0 = m.allocs()
	m.cpu0 = processCPU()
	m.host0 = readHostTicks()
	m.t0 = time.Now()
	m.running = true
}

func (m *meter) pause() {
	if m == nil || !m.running {
		return
	}
	m.cur.wall += time.Since(m.t0)
	m.cur.host = m.cur.host.add(readHostTicks().sub(m.host0))
	m.cur.cpu += processCPU() - m.cpu0
	obj, byt := m.allocs()
	m.cur.objects += obj - m.obj0
	m.cur.bytes += byt - m.byt0
	m.running = false
}

// mark closes the current slice, crediting it with ops completed ops, and
// leaves the meter running or paused as it was.
func (m *meter) mark(ops int64) {
	was := m.running
	m.pause()
	m.cur.ops = ops
	if n := len(m.slices); n > 0 && (ops == 0 || m.cur.wall < minSlice) {
		// Time without a completed op, or a short remainder at the end of a
		// window (too few clock ticks to tell what share of it was stolen),
		// joins the slice before it.
		m.slices[n-1] = m.slices[n-1].plus(m.cur)
	} else if ops > 0 {
		m.slices = append(m.slices, m.cur)
	}
	m.cur = sliceStats{}
	if was {
		m.resume()
	}
}

// grantLast scales latency samples taken during the slice mark just closed
// by that slice's granted share of the wall clock. It is for a latency unit
// that spans many scheduler quanta (a fleet round is a tenth of a second), so
// that each sample loses its share of the stolen time; a sub-millisecond unit
// is either hit by a stolen quantum or not, and its median needs no help.
func (m *meter) grantLast(ms []float64) {
	if len(m.slices) == 0 {
		return
	}
	last := m.slices[len(m.slices)-1]
	if last.wall <= 0 {
		return
	}
	share := float64(last.granted()) / float64(last.wall)
	for i := range ms {
		ms[i] *= share
	}
}

// total sums the closed slices.
func (m *meter) total() sliceStats {
	var t sliceStats
	for _, s := range m.slices {
		t = t.plus(s)
	}
	return t
}

// rates returns the window's totals as rates: ops per second of granted
// time, CPU milliseconds per thousand ops, heap objects per op and heap
// kilobytes per op. Every op and every moment of the window counts, so a
// regression confined to some of the slices (a slow merge at the end of a
// fleet_chaos window, rounds under a fault) moves them by its share.
func (m *meter) rates() (opsPerS, cpuMsPerKop, allocsPerOp, kbPerOp float64) {
	t := m.total()
	ops := float64(t.ops)
	return ops / t.granted().Seconds(), inMS(t.cpu) / (ops / 1000), float64(t.objects) / ops, float64(t.bytes) / 1024 / ops
}

// sliceRates is each slice's ops per second of granted time, ascending.
func (m *meter) sliceRates() []float64 {
	rates := make([]float64, 0, len(m.slices))
	for _, s := range m.slices {
		rates = append(rates, float64(s.ops)/s.granted().Seconds())
	}
	sort.Float64s(rates)
	return rates
}

// procStatus reads one "Key:\t<n> kB" field of /proc/self/status in MB.
func procStatusMB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM); where
// /proc is absent it falls back to getrusage's ru_maxrss.
func peakRSSMB() float64 {
	if mb := procStatusMB("VmHWM"); mb > 0 {
		return mb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procIOWritten is the wchar counter of /proc/self/io: bytes this process
// passed to write-like system calls.
func procIOWritten() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}

// runtimeWatch samples the Go runtime over a traced window: GC CPU share,
// worst GC pause, live heap and the goroutine high-water mark.
type runtimeWatch struct {
	stop chan struct{}
	done chan struct{}
	peak int

	gc0, total0 float64
	pauses0     uint32
}

func cpuClass(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func startRuntimeWatch() *runtimeWatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &runtimeWatch{
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		gc0:     cpuClass("/cpu/classes/gc/total:cpu-seconds"),
		total0:  cpuClass("/cpu/classes/total:cpu-seconds"),
		pauses0: ms.NumGC,
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops the watcher and writes the runtime.* layer metrics.
func (w *runtimeWatch) finish(layer map[string]float64) {
	close(w.stop)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if total := cpuClass("/cpu/classes/total:cpu-seconds") - w.total0; total > 0 {
		layer["runtime.gc_cpu_frac"] = (cpuClass("/cpu/classes/gc/total:cpu-seconds") - w.gc0) / total
	}
	var worst uint64
	n := ms.NumGC - w.pauses0
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		if p := ms.PauseNs[(ms.NumGC-i+255)%256]; p > worst {
			worst = p
		}
	}
	layer["runtime.gc_pause_ms_max"] = float64(worst) / 1e6
	layer["runtime.heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	layer["runtime.goroutines_peak"] = float64(w.peak)
}
