package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// samplerNames is the pool a schedule draws metric names from. Any name
// may be interned as a counter in one lane and as a histogram in another,
// or as both in one lane.
var samplerNames = [...]string{
	"edgeos.invocations", "offload.total_ms", "faults.site_down",
	"network.bytes_up", "xedge.exec_ms",
}

// scheduleCover records which cases a schedule reached.
type scheduleCover struct {
	lateWatch  bool // a lane watched after Start's baseline sample
	lateIntern bool // a metric interned after the first tick
	untouched  bool // a tick saw a pre-resolved counter never bumped
	zeroHist   bool // a tick saw a histogram with no samples
	quietTick  bool // a tick with no emission since the one before
	crossKind  bool // a name sampled as a counter in one lane, a histogram in another
	merged     bool // a Merge into a watched lane
}

// cover marks the cases the lanes show at a tick.
func (c *scheduleCover) cover(lanes []*telemetry.Registry) {
	counterIn := map[string][]int{}
	histIn := map[string][]int{}
	for i, reg := range lanes {
		for _, m := range reg.InternedSince(0) {
			if m.C != nil {
				if !m.C.Touched() {
					c.untouched = true
				} else {
					counterIn[m.Name] = append(counterIn[m.Name], i)
				}
				continue
			}
			if n, _ := m.H.CountSum(); n == 0 {
				c.zeroHist = true
			} else {
				histIn[m.Name] = append(histIn[m.Name], i)
			}
		}
	}
	for name, cs := range counterIn {
		for _, i := range cs {
			for _, j := range histIn[name] {
				c.crossKind = c.crossKind || i != j
			}
		}
	}
}

// runSamplerSchedule runs prog against a Sampler started on an engine and
// against the naive reference on the same lanes, and fails at the first
// tick whose series payloads differ in a byte. Each op reads its opcode, a
// lane, a name and an argument from prog.
func runSamplerSchedule(t *testing.T, prog []byte) scheduleCover {
	t.Helper()
	const interval = 100 * time.Millisecond
	got, want := NewSeriesStore(64), NewSeriesStore(64)
	sp, ref := NewSampler(got, interval), newNaiveSampler(want)
	var lanes []*telemetry.Registry
	watch := func(reg *telemetry.Registry) {
		lanes = append(lanes, reg)
		sp.Watch(reg)
		ref.Watch(reg)
	}
	watch(telemetry.NewRegistry())

	var cov scheduleCover
	eng := sim.NewEngine(0)
	now := time.Duration(0)
	tick := func() {
		cov.cover(lanes)
		if now == 0 {
			if _, err := sp.Start(eng); err != nil {
				t.Fatal(err)
			}
		} else if err := eng.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		ref.SampleAt(now)
		g, err := json.Marshal(got.Payload(-1))
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want.Payload(-1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("payloads differ at %v:\n got %s\nwant %s", now, g, w)
		}
		now += interval
	}
	tick()

	emitted := false
	for len(prog) >= 4 {
		op, lane := prog[0], lanes[int(prog[1])%len(lanes)]
		name, arg := samplerNames[int(prog[2])%len(samplerNames)], float64(prog[3])
		prog = prog[4:]
		gen := lane.Generation()
		switch op % 8 {
		case 0:
			lane.CounterHandle(name).Add(arg/7 + 0.1)
			emitted = true
		case 1:
			lane.CounterHandle(name)
		case 2:
			lane.HistogramHandle(name).Observe(arg/3 - 20)
			emitted = true
		case 3:
			lane.HistogramHandle(name)
		case 4:
			watch(telemetry.NewRegistry())
			cov.lateWatch = true
		case 5:
			src := telemetry.NewRegistry()
			src.CounterHandle(name).Add(arg/5 + 0.3)
			src.HistogramHandle(samplerNames[int(op/8)%len(samplerNames)]).Observe(arg / 11)
			lane.Merge(src)
			cov.merged, emitted = true, true
		default:
			if !emitted {
				cov.quietTick = true
			}
			emitted = false
			tick()
		}
		if lane.Generation() != gen {
			cov.lateIntern = true
		}
	}
	tick()
	return cov
}

// TestSamplerMatchesNaiveReference: over seeded schedules — lanes watched
// after Start, metrics interned mid-run, counters resolved and never
// bumped, histograms with no samples, ticks with no emission, a name that
// is a counter in one lane and a histogram in another, merges into watched
// lanes — every tick's series payload is byte-identical to the one a
// sampler that rebuilds and sorts every lane each tick produces.
func TestSamplerMatchesNaiveReference(t *testing.T) {
	var all scheduleCover
	for seed := int64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed)
		prog := make([]byte, 4*(50+rng.Intn(300)))
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		c := runSamplerSchedule(t, prog)
		all.lateWatch = all.lateWatch || c.lateWatch
		all.lateIntern = all.lateIntern || c.lateIntern
		all.untouched = all.untouched || c.untouched
		all.zeroHist = all.zeroHist || c.zeroHist
		all.quietTick = all.quietTick || c.quietTick
		all.crossKind = all.crossKind || c.crossKind
		all.merged = all.merged || c.merged
	}
	if all != (scheduleCover{true, true, true, true, true, true, true}) {
		t.Fatalf("schedules missed a case: %+v", all)
	}
}

// FuzzSamplerMatchesReference holds the Sampler to the naive reference over
// arbitrary schedules (see runSamplerSchedule for the op encoding).
func FuzzSamplerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 9, 7, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 3, 1, 1, 0, 7, 0, 0, 0, 2, 1, 1, 40, 0, 0, 1, 3, 7, 0, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{0, 0, 2, 5, 4, 0, 0, 0, 2, 1, 2, 6, 7, 0, 0, 0, 13, 1, 3, 77, 15, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runSamplerSchedule(t, prog)
	})
}
