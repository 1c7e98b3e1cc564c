package obs

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestRecorderOrderAndFilters(t *testing.T) {
	r := NewRecorder(16)
	r.Emit(20*time.Millisecond, &EventKind{"offload", SevWarn, "breaker.open"}, trace.String("dest", "rsu-1"))
	r.Emit(10*time.Millisecond, &EventKind{"faults", SevInfo, "outage.begin"})
	r.Emit(20*time.Millisecond, &EventKind{"fleet", SevDebug, "commit.begin"})

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Name != "outage.begin" {
		t.Fatalf("events not time-ordered: %v", evs)
	}
	// Same-timestamp ties break by emission order.
	if evs[1].Name != "breaker.open" || evs[2].Name != "commit.begin" {
		t.Fatalf("tie-break wrong: %v, %v", evs[1].Name, evs[2].Name)
	}

	if got := r.EventsSince(10*time.Millisecond, "", SevDebug); len(got) != 2 {
		t.Fatalf("since filter: got %d", len(got))
	}
	if got := r.EventsSince(-1, "offload", SevDebug); len(got) != 1 || got[0].Component != "offload" {
		t.Fatalf("component filter: %v", got)
	}
	if got := r.EventsSince(-1, "", SevWarn); len(got) != 1 || got[0].Severity != SevWarn {
		t.Fatalf("severity filter: %v", got)
	}
}

func TestRecorderRingDropsOldest(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Emit(time.Duration(i)*time.Millisecond, &EventKind{"c", SevInfo, "ev"})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d", r.Dropped())
	}
	evs := r.Events()
	if evs[0].At != 2*time.Millisecond {
		t.Fatalf("oldest retained = %v", evs[0].At)
	}
}

func TestRecorderMergeCanonicalOrder(t *testing.T) {
	mk := func() (*Recorder, *Recorder) {
		a, b := NewRecorder(8), NewRecorder(8)
		a.Emit(5*time.Millisecond, &EventKind{"laneA", SevInfo, "x"})
		b.Emit(5*time.Millisecond, &EventKind{"laneB", SevInfo, "y"})
		return a, b
	}
	a1, b1 := mk()
	m1 := NewRecorder(16)
	m1.Merge(a1)
	m1.Merge(b1)

	// Merging the same lanes in the same canonical order must produce the
	// same tie-break regardless of which lane emitted first in wall time.
	a2, b2 := mk()
	m2 := NewRecorder(16)
	m2.Merge(a2)
	m2.Merge(b2)

	e1, e2 := m1.Events(), m2.Events()
	if e1[0].Component != "laneA" || e2[0].Component != "laneA" {
		t.Fatalf("canonical merge order not respected: %v / %v", e1[0].Component, e2[0].Component)
	}
}

// TestRecorderOwnsItsFields: Emit keeps a copy of its fields, so a caller
// that reuses its slice after emitting cannot rewrite a recorded event.
func TestRecorderOwnsItsFields(t *testing.T) {
	r := NewRecorder(4)
	fields := []trace.Attr{trace.String("dest", "rsu-0"), trace.Int("attempts", 2)}
	r.Emit(time.Second, &EventKind{"offload", SevWarn, "breaker.open"}, fields...)
	fields[0], fields[1] = trace.String("dest", "cloud"), trace.Int("attempts", 9)
	got := r.Events()[0].Fields
	if len(got) != 2 || got[0].Value() != "rsu-0" || got[1].Value() != "2" {
		t.Fatalf("recorded fields follow the caller's slice: %s=%s %s=%s",
			got[0].Key, got[0].Value(), got[1].Key, got[1].Value())
	}
}

// TestRecorderExportsAreStable: a recorder copies event fields into slabs
// it never rewrites, so what it handed out — Events, EventsSince and the
// events a Merge destination shares with it — keeps its fields while the
// source wraps its ring many times over and fills slab after slab.
func TestRecorderExportsAreStable(t *testing.T) {
	src := NewRecorder(4)
	emit := func(i int) {
		src.Emit(time.Duration(i)*time.Millisecond, &EventKind{"offload", SevWarn, "resilient.fallback"},
			trace.Int("vehicle", i), trace.String("from", "rsu-"+strconv.Itoa(i)), trace.F64("share", float64(i)/8))
	}
	render := func(evs []Event) string {
		var b []byte
		for _, ev := range evs {
			if cap(ev.Fields) != len(ev.Fields) {
				t.Fatalf("%s's fields have room for %d more: an append would write the next event's", ev.Name, cap(ev.Fields)-len(ev.Fields))
			}
			for _, f := range ev.Fields {
				b = append(b, f.Key+"="+f.Value()+" "...)
			}
			b = append(b, '\n')
		}
		return string(b)
	}
	for i := 0; i < 4; i++ {
		emit(i)
	}
	events, since := src.Events(), src.EventsSince(time.Millisecond, "", SevDebug)
	merged := NewRecorder(8)
	merged.Merge(src)
	want := []string{render(events), render(since), merged.RenderTable()}
	for i := 4; i < 4+10*fieldSlab; i++ {
		emit(i)
	}
	got := []string{render(events), render(since), merged.RenderTable()}
	for i, what := range []string{"Events", "EventsSince", "Merge destination"} {
		if got[i] != want[i] {
			t.Errorf("%s changed after the source wrapped:\n got %s\nwant %s", what, got[i], want[i])
		}
	}
	if want[0] == "" || src.Dropped() != 10*fieldSlab {
		t.Fatalf("nothing exported, or the ring did not wrap: %d dropped", src.Dropped())
	}
}

// Kinds declared once, as an emitter declares its own: a kind built at the
// call site would be an allocation of its own per Emit.
var (
	kindOutageBegin = &EventKind{"faults", SevWarn, "outage.begin"}
	kindDegraded    = &EventKind{"offload", SevWarn, "resilient.degraded"}
	kindCommitBegin = &EventKind{"fleet", SevDebug, "commit.begin"}
)

// TestRecorderEmitAllocs: an Emit with three attributes allocates at most
// once per twenty events, amortised — a new field slab, once the current
// one is full.
func TestRecorderEmitAllocs(t *testing.T) {
	const perRun = 2100
	r := NewRecorder(256)
	site := "rsu-3"
	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < perRun; i++ {
			r.Emit(time.Duration(i), kindOutageBegin,
				trace.String("site", site), trace.Dur("length", time.Second), trace.Int("attempt", i))
		}
	}) / perRun
	t.Logf("%.4f allocations per Emit", n)
	if n > 0.05 {
		t.Errorf("%.4f allocations per Emit with 3 attributes, want at most 0.05", n)
	}
}

// FuzzEventJSON: an event decoded from arbitrary bytes (libvdap's client
// decodes /api/v1/events this way) never panics, and once decoded,
// encoding and decoding again gives the same bytes.
func FuzzEventJSON(f *testing.F) {
	r := NewRecorder(4)
	r.Emit(1500*time.Millisecond, &EventKind{"offload", SevWarn, "resilient.degraded"},
		trace.String("dag", "alpr"), trace.F64("factor", 0.55), trace.Int("attempts", 3),
		trace.Dur("length", time.Second), trace.Bool("degraded", true), trace.String("reason", ""))
	r.Emit(0, &EventKind{"fleet", SevDebug, "commit.begin"})
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("{\"fields\":[null,{\"k\":\"\\u003c\xff\"}],\"severity\":\"error\"}"))
	f.Add([]byte(`{"atNs":-1,"fields":[{"v":7}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev Event
		if json.Unmarshal(data, &ev) != nil {
			return
		}
		once, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("decoded event does not encode: %v", err)
		}
		var again Event
		if err := json.Unmarshal(once, &again); err != nil {
			t.Fatalf("encoded event %s does not decode: %v", once, err)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(once) != string(twice) {
			t.Fatalf("encode is not stable under decode:\n%s\n%s", once, twice)
		}
	})
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, sev := range []Severity{SevDebug, SevInfo, SevWarn, SevError} {
		b, err := json.Marshal(sev)
		if err != nil {
			t.Fatal(err)
		}
		var got Severity
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != sev {
			t.Fatalf("round trip %v -> %v", sev, got)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"loud"`), &bad); err == nil {
		t.Fatal("bad severity accepted")
	}
}

func TestSeriesPayloadDeltaAndRates(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.CounterHandle("offload.failures")
	store := NewSeriesStore(32)
	sp := NewSampler(store, 100*time.Millisecond)
	sp.Watch(reg)

	c.Add(2)
	sp.SampleAt(100 * time.Millisecond)
	c.Add(3)
	sp.SampleAt(200 * time.Millisecond)
	sp.SampleAt(300 * time.Millisecond)

	p := store.Payload(-1)
	if len(p.Series) != 1 {
		t.Fatalf("series count = %d", len(p.Series))
	}
	s := p.Series[0]
	if s.Name != "offload.failures" || s.Kind != "counter" || s.Points != 3 {
		t.Fatalf("payload header: %+v", s)
	}
	if s.BaseNs != int64(100*time.Millisecond) {
		t.Fatalf("BaseNs = %d", s.BaseNs)
	}
	wantDt := []int64{int64(100 * time.Millisecond), int64(100 * time.Millisecond)}
	if !reflect.DeepEqual(s.DtNs, wantDt) {
		t.Fatalf("DtNs = %v", s.DtNs)
	}
	if !reflect.DeepEqual(s.V, []float64{2, 5, 5}) {
		t.Fatalf("V = %v", s.V)
	}
	// First window runs from t=0 (value 0): 2/0.1s = 20/s, then 30/s, 0/s.
	if !reflect.DeepEqual(s.Rate, []float64{20, 30, 0}) {
		t.Fatalf("Rate = %v", s.Rate)
	}
	if p.WatermarkNs != int64(300*time.Millisecond) {
		t.Fatalf("watermark = %d", p.WatermarkNs)
	}

	// since filters strictly-after.
	p2 := store.Payload(200 * time.Millisecond)
	if p2.Series[0].Points != 1 || p2.Series[0].BaseNs != int64(300*time.Millisecond) {
		t.Fatalf("since payload: %+v", p2.Series[0])
	}
	// Rate of the first windowed point still uses the true predecessor.
	if p2.Series[0].Rate[0] != 0 {
		t.Fatalf("since rate = %v", p2.Series[0].Rate)
	}
}

func TestSamplerHistogramAndGaugeSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.HistogramHandle("offload.uplink_ms")
	store := NewSeriesStore(32)
	sp := NewSampler(store, 50*time.Millisecond)
	sp.Watch(reg)

	sp.SampleAt(0) // nothing visible yet
	h.Observe(4)
	h.Observe(6)
	sp.SampleAt(50 * time.Millisecond)
	store.RecordGauge("fleet.deadline_hit_rate", 50*time.Millisecond, 0.75)

	p := store.Payload(-1)
	if len(p.Series) != 2 {
		t.Fatalf("series: %+v", p.Series)
	}
	g, hs := p.Series[0], p.Series[1]
	if g.Name != "fleet.deadline_hit_rate" || g.Kind != "gauge" || g.V[0] != 0.75 || g.Rate != nil {
		t.Fatalf("gauge payload: %+v", g)
	}
	if hs.Kind != "histogram" || hs.Points != 1 || hs.V[0] != 2 || hs.Sum[0] != 10 {
		t.Fatalf("hist payload: %+v", hs)
	}
}

func TestSamplerMultiLaneSumsMatchSingleLane(t *testing.T) {
	// Two lanes bumping the same metric must sample to the same fleet-level
	// series as one lane bumping it twice as much.
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	regA.CounterHandle("fleet.invocations").Add(3)
	regB.CounterHandle("fleet.invocations").Add(4)
	split := NewSeriesStore(8)
	spSplit := NewSampler(split, 100*time.Millisecond)
	spSplit.Watch(regA)
	spSplit.Watch(regB)
	spSplit.SampleAt(100 * time.Millisecond)

	regOne := telemetry.NewRegistry()
	regOne.CounterHandle("fleet.invocations").Add(7)
	one := NewSeriesStore(8)
	spOne := NewSampler(one, 100*time.Millisecond)
	spOne.Watch(regOne)
	spOne.SampleAt(100 * time.Millisecond)

	a, b := split.Payload(-1), one.Payload(-1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lane split changed series:\n%+v\n%+v", a, b)
	}
}

func TestSeriesStoreMergeUnionAndOrderIndependence(t *testing.T) {
	build := func(vals []float64, times []time.Duration) *SeriesStore {
		reg := telemetry.NewRegistry()
		st := NewSeriesStore(16)
		sp := NewSampler(st, 100*time.Millisecond)
		sp.Watch(reg)
		var total float64
		for i, v := range vals {
			reg.CounterHandle("x.count").Add(v - total)
			total = v
			sp.SampleAt(times[i])
		}
		return st
	}
	// Replica stores sampled on the same schedule: merged series must be
	// the pointwise sum in either merge direction.
	a := build([]float64{1, 2}, []time.Duration{100 * time.Millisecond, 200 * time.Millisecond})
	b := build([]float64{10, 20}, []time.Duration{100 * time.Millisecond, 200 * time.Millisecond})

	m1 := NewSeriesStore(16)
	m1.Merge(a)
	m1.Merge(b)
	p1 := m1.Payload(-1)
	if !reflect.DeepEqual(p1.Series[0].V, []float64{11, 22}) {
		t.Fatalf("merged V = %v", p1.Series[0].V)
	}

	m2 := NewSeriesStore(16)
	m2.Merge(b)
	m2.Merge(a)
	if p2 := m2.Payload(-1); !reflect.DeepEqual(p1, p2) {
		t.Fatalf("merge order changed payload:\n%+v\n%+v", p1, p2)
	}

	// Disjoint timestamps union with carry-forward.
	c := build([]float64{5}, []time.Duration{150 * time.Millisecond})
	m3 := NewSeriesStore(16)
	m3.Merge(a)
	m3.Merge(c)
	got := m3.Payload(-1).Series[0]
	if !reflect.DeepEqual(got.V, []float64{1, 6, 7}) {
		t.Fatalf("union V = %v", got.V)
	}
}

func TestSeriesRingDropsOldest(t *testing.T) {
	st := NewSeriesStore(2)
	st.RecordGauge("g", 1*time.Millisecond, 1)
	st.RecordGauge("g", 2*time.Millisecond, 2)
	st.RecordGauge("g", 3*time.Millisecond, 3)
	s := st.Payload(-1).Series[0]
	if s.Points != 2 || s.BaseNs != int64(2*time.Millisecond) || s.Dropped != 1 {
		t.Fatalf("ring payload: %+v", s)
	}
}

// TestSamplerSamplePathZeroAlloc pins the tentpole contract: once series
// exist, a sample tick allocates nothing.
func TestSamplerSamplePathZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	counters := make([]*telemetry.Counter, 16)
	for i := range counters {
		counters[i] = reg.CounterHandle("c.metric_" + string(rune('a'+i)))
		counters[i].Inc()
	}
	hists := make([]*telemetry.HistogramHandle, 4)
	for i := range hists {
		hists[i] = reg.HistogramHandle("h.metric_" + string(rune('a'+i)))
		hists[i].Observe(1)
	}
	store := NewSeriesStore(256)
	sp := NewSampler(store, 100*time.Millisecond)
	sp.Watch(reg)
	sp.SampleAt(0) // warm: resync + series creation

	now := 100 * time.Millisecond
	allocs := testing.AllocsPerRun(100, func() {
		counters[0].Inc()
		hists[0].Observe(2) // seven slice doublings in 100 runs: below AllocsPerRun's integral average
		sp.SampleAt(now)
		now += 100 * time.Millisecond
	})
	if allocs != 0 {
		t.Fatalf("sample path allocates %.1f per tick", allocs)
	}
}

// TestSamplerSeesMergedHistograms: a histogram (or counter) that a Merge
// creates in a watched registry is logged like an interned one, so the
// next tick samples it.
func TestSamplerSeesMergedHistograms(t *testing.T) {
	dst := telemetry.NewRegistry()
	dst.CounterHandle("fleet.rounds").Add(1)
	store := NewSeriesStore(8)
	sp := NewSampler(store, 100*time.Millisecond)
	sp.Watch(dst)
	sp.SampleAt(0)

	src := telemetry.NewRegistry()
	src.HistogramHandle("offload.total_ms").Observe(3)
	src.HistogramHandle("offload.total_ms").Observe(5)
	src.CounterHandle("offload.fallbacks").Add(2)
	dst.Merge(src)
	sp.SampleAt(100 * time.Millisecond)

	p := store.Payload(-1)
	if len(p.Series) != 3 {
		t.Fatalf("series after merge: %+v", p.Series)
	}
	fb, h := p.Series[1], p.Series[2]
	if fb.Name != "offload.fallbacks" || fb.Kind != "counter" || !reflect.DeepEqual(fb.V, []float64{2}) {
		t.Fatalf("merged counter: %+v", fb)
	}
	if h.Name != "offload.total_ms" || h.Kind != "histogram" || h.V[0] != 2 || h.Sum[0] != 8 {
		t.Fatalf("merged histogram: %+v", h)
	}
}

// TestSamplerRestartResumesSeries: a second sampler on the same store (a
// platform that stops and restarts sampling) keeps appending to the series
// the first one created.
func TestSamplerRestartResumesSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterHandle("fleet.rounds").Add(1)
	reg.HistogramHandle("offload.total_ms").Observe(4)
	store := NewSeriesStore(8)
	first := NewSampler(store, time.Second)
	first.Watch(reg)
	first.SampleAt(0)
	first.SampleAt(time.Second)

	second := NewSampler(store, time.Second)
	second.Watch(reg)
	reg.CounterHandle("fleet.rounds").Add(1)
	second.SampleAt(2 * time.Second)

	p := store.Payload(-1)
	if len(p.Series) != 2 {
		t.Fatalf("series: %+v", p.Series)
	}
	for _, s := range p.Series {
		if s.Points != 3 {
			t.Fatalf("%s has %d points after the restart, want 3", s.Name, s.Points)
		}
	}
	if got := p.Series[0].V; !reflect.DeepEqual(got, []float64{1, 1, 2}) {
		t.Fatalf("fleet.rounds = %v", got)
	}
}

// TestResyncIsIncremental: a tick after a lane of n metrics interned k new
// ones reads only those k from the registry's log. Over many such ticks
// the sampler allocates at most one regrowth of the lane's handle list
// plus a constant per new metric, where rebuilding the lane from a sorted
// list of its names would allocate O(n) on every such tick.
func TestResyncIsIncremental(t *testing.T) {
	const n, k, steps = 4096, 4, 64
	reg := telemetry.NewRegistry()
	for i := 0; i < n; i++ {
		reg.CounterHandle("c." + strconv.Itoa(i)).Inc()
	}
	sp := NewSampler(NewSeriesStore(4), time.Second)
	sp.Watch(reg)
	sp.SampleAt(0)

	var allocated uint64
	var before, after runtime.MemStats
	for s := 1; s <= steps; s++ {
		for j := 0; j < k; j++ {
			reg.CounterHandle("new." + strconv.Itoa(s*k+j)) // pre-resolved, never bumped
		}
		runtime.ReadMemStats(&before)
		sp.SampleAt(time.Duration(s) * time.Second)
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	if bound := uint64(2*n*48 + steps*k*64); allocated > bound {
		t.Fatalf("%d ticks after interning %d metrics each on a lane of %d allocated %d B (bound %d)",
			steps, k, n, allocated, bound)
	}
	if got := len(sp.store.m); got != n {
		t.Fatalf("%d series, want %d (new metrics were never bumped)", got, n)
	}
}

func TestSamplerStartOnEngine(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.CounterHandle("tick.count")
	c.Inc()
	store := NewSeriesStore(64)
	sp := NewSampler(store, 100*time.Millisecond)
	sp.Watch(reg)

	eng := sim.NewEngine(1)
	stop, err := sp.Start(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(450 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stop()
	// Baseline sample at t=0 plus ticks at 100..400ms.
	s := store.Payload(-1).Series[0]
	if s.Points != 5 {
		t.Fatalf("points = %d", s.Points)
	}
	if sp.Ticks() != 5 {
		t.Fatalf("ticks = %d", sp.Ticks())
	}
	if _, err := sp.Start(nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

// TestMergePreservesAtSeqOrderAcrossRecorders pins the canonical merge
// the fleet relies on for its per-vehicle recorders: events recorded on
// separate recorders at the SAME virtual time must, after a Merge in
// canonical (index) order, come out ordered by (At, merge sequence) —
// i.e. recorder order for ties — identically on every run, no matter in
// which order the shards' workers emitted them while recording.
func TestMergePreservesAtSeqOrderAcrossRecorders(t *testing.T) {
	const epoch = 250 * time.Millisecond
	mkRecorders := func() []*Recorder {
		recs := make([]*Recorder, 3)
		for i := range recs {
			recs[i] = NewRecorder(16)
		}
		// Deliberately emit in non-canonical order (2, 0, 1) to model
		// arbitrary shard scheduling during the parallel decision phase.
		for _, i := range []int{2, 0, 1} {
			recs[i].Emit(0, &EventKind{"offload", SevWarn, "breaker.open"},
				trace.Int("vehicle", i), trace.String("site", "rsu-"+strconv.Itoa(i)), trace.Int("failures", i+1))
			recs[i].Emit(epoch, &EventKind{"offload", SevInfo, "resilient.fallback"},
				trace.Int("vehicle", i), trace.String("from", "rsu-"+strconv.Itoa(i)), trace.String("to", "cloud"))
		}
		return recs
	}
	mergeAll := func(recs []*Recorder) *Recorder {
		merged := NewRecorder(32)
		for _, r := range recs { // canonical order: recorder index
			merged.Merge(r)
		}
		return merged
	}
	a, b := mergeAll(mkRecorders()), mergeAll(mkRecorders())
	if ra, rb := a.RenderTable(), b.RenderTable(); ra != rb {
		t.Fatalf("merged tables diverged:\n%s\nvs\n%s", ra, rb)
	}
	events := a.Events()
	if len(events) != 6 {
		t.Fatalf("merged %d events, want 6", len(events))
	}
	for i, ev := range events {
		wantAt, wantRec := time.Duration(0), i
		if i >= 3 {
			wantAt, wantRec = epoch, i-3
		}
		if ev.At != wantAt {
			t.Fatalf("event %d at %v, want %v (At must dominate)", i, ev.At, wantAt)
		}
		if got := ev.Fields[0].Value(); got != strconv.Itoa(wantRec) {
			t.Fatalf("event %d vehicle = %s, want %d (same-At ties must follow canonical merge order)", i, got, wantRec)
		}
		if i > 0 && events[i-1].At == ev.At && events[i-1].seq >= ev.seq {
			t.Fatalf("same-At events not strictly seq-ordered at %d: %d >= %d", i, events[i-1].seq, ev.seq)
		}
	}
}
