package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.CounterHandle("invocations").Add(1)
	r.CounterHandle("invocations").Add(2)
	if got := r.Counter("invocations"); got != 3 {
		t.Fatalf("counter = %v", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Summary() != (HistogramSummary{}) {
		t.Fatal("empty histogram does not summarize to zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.sum != 5050 || h.Mean() != 50.5 {
		t.Fatalf("stats = %d/%v/%v", h.Count(), h.sum, h.Mean())
	}
	if got := h.compacted().quantile(0.5); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.compacted().quantile(0.95); got != 95 {
		t.Fatalf("p95 = %v", got)
	}
	if got := h.compacted().quantile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := h.max; got != 100 {
		t.Fatalf("max = %v", got)
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		h := &Histogram{}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		if h.Count() == 0 {
			return true
		}
		c := h.compacted()
		prev := c.quantile(0)
		for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 1} {
			cur := c.quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	r.HistogramHandle("latency").ObserveDuration(250 * time.Millisecond)
	h := r.Histogram("latency")
	if h == nil || h.Count() != 1 {
		t.Fatal("duration not recorded")
	}
	if h.Mean() != 250 {
		t.Fatalf("mean = %v ms", h.Mean())
	}
	if r.Histogram("missing") != nil {
		t.Fatal("missing histogram not nil")
	}
}

func TestHistogramSnapshotIsolated(t *testing.T) {
	r := NewRegistry()
	r.HistogramHandle("x").Observe(1)
	snap := r.Histogram("x")
	snap.Observe(999)
	if got := r.Histogram("x").Count(); got != 1 {
		t.Fatalf("snapshot mutation leaked: count = %d", got)
	}
}

func TestRenderDeterministic(t *testing.T) {
	r := NewRegistry()
	r.CounterHandle("b-counter").Add(2)
	r.CounterHandle("a-counter").Add(1)
	r.CounterHandle("z-counter").Add(9)
	r.HistogramHandle("m-hist").Observe(5)
	r.HistogramHandle("m-hist").Observe(15)
	out1 := r.Render()
	out2 := r.Render()
	if out1 != out2 {
		t.Fatal("render not deterministic")
	}
	for _, want := range []string{"a-counter", "b-counter", "z-counter", "m-hist", "p95"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("render missing %q:\n%s", want, out1)
		}
	}
	if strings.Index(out1, "a-counter") > strings.Index(out1, "b-counter") {
		t.Fatal("counters not sorted")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.CounterHandle("c").Add(1)
				r.HistogramHandle("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c") != 4000 {
		t.Fatalf("counter = %v", r.Counter("c"))
	}
	if r.Histogram("h").Count() != 4000 {
		t.Fatal("histogram lost samples")
	}
}

func TestQuantileDoesNotMutateSampleOrder(t *testing.T) {
	// Regression: Quantile used to sort.Float64s the live sample slice,
	// reordering samples under every holder of the histogram. Reading a
	// histogram with a pending tail must leave the tail as it was.
	h := &Histogram{}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		h.Observe(v)
	}
	pending := slices.Clone(h.bins)
	if got := h.compacted().quantile(0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := h.Summary().P90; got != 5 {
		t.Fatalf("p90 = %v, want 5", got)
	}
	if !slices.Equal(h.bins, pending) || h.sorted != 0 {
		t.Fatalf("reading reordered the pending bins: %v (sorted %d), was %v", h.bins, h.sorted, pending)
	}
}

func TestObserveRenderRace(t *testing.T) {
	// Regression companion for the Quantile fix: hammer Observe and the
	// quantile-reading paths concurrently under -race.
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				r.HistogramHandle("h").Observe(float64(g*1000 + i))
				r.CounterHandle("c").Add(1)
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = r.Render()
				_ = r.Snapshot()
				if h := r.Histogram("h"); h != nil {
					_ = h.Summary()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Histogram("h").Count(); got != 1200 {
		t.Fatalf("histogram count = %d, want 1200", got)
	}
}

func TestSnapshotGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterHandle("ddi.cache.hits").Add(3)
	r.CounterHandle("vcu.devices_online").Add(4)
	for _, v := range []float64{10, 20, 30, 40} {
		r.HistogramHandle("offload.total_ms").Observe(v)
	}
	got, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"counters":{"ddi.cache.hits":3,"vcu.devices_online":4},` +
		`"histograms":{"offload.total_ms":{"count":4,"retained":4,"sum":100,"mean":25,"min":10,"p50":20,"p90":40,"p95":40,"p99":40,"max":40}}}`
	if string(got) != golden {
		t.Fatalf("snapshot JSON drifted:\n got: %s\nwant: %s", got, golden)
	}
}

func TestSnapshotEmptyAndIsolated(t *testing.T) {
	r := NewRegistry()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("empty registry snapshot not empty: %+v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("empty snapshot not marshalable: %v", err)
	}
	r.CounterHandle("c").Add(1)
	snap = r.Snapshot()
	snap.Counters["c"] = 99
	if got := r.Counter("c"); got != 1 {
		t.Fatalf("snapshot mutation leaked into registry: %v", got)
	}
}

// TestRegistryMerge: counters add, and histogram Count/Sum/Min/Max stay
// exact across a merge.
func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.CounterHandle("hits").Add(2)
	b.CounterHandle("hits").Add(3)
	b.CounterHandle("only.b").Add(1)
	for _, v := range []float64{1, 2, 3} {
		a.HistogramHandle("lat_ms").Observe(v)
	}
	for _, v := range []float64{10, 0.5} {
		b.HistogramHandle("lat_ms").Observe(v)
	}
	b.HistogramHandle("only.b_ms").Observe(7)

	a.Merge(b)
	if got := a.Counter("hits"); got != 5 {
		t.Fatalf("merged counter = %v, want 5", got)
	}
	if got := a.Counter("only.b"); got != 1 {
		t.Fatalf("source-only counter = %v, want 1", got)
	}
	h := a.Histogram("lat_ms")
	if h.Count() != 5 || h.sum != 16.5 || h.min != 0.5 || h.max != 10 {
		t.Fatalf("merged histogram = count %d sum %v min %v max %v",
			h.Count(), h.sum, h.min, h.max)
	}
	if a.Histogram("only.b_ms") == nil {
		t.Fatal("source-only histogram missing after merge")
	}
	// Source untouched.
	if b.Counter("hits") != 3 || b.Histogram("lat_ms").Count() != 2 {
		t.Fatal("merge mutated the source registry")
	}
	// Self-merge and nil-merge are no-ops.
	a.Merge(a)
	a.Merge(nil)
	if a.Counter("hits") != 5 {
		t.Fatal("self-merge doubled counters")
	}
}

// TestRegistryMergeOrderDeterminism: merging the same shard registries in
// index order renders identically however the shards were produced.
func TestRegistryMergeOrderDeterminism(t *testing.T) {
	build := func() []*Registry {
		shards := make([]*Registry, 4)
		for i := range shards {
			shards[i] = NewRegistry()
			shards[i].CounterHandle("n").Add(float64(i))
			shards[i].CounterHandle("g").Add(float64(i) / 3)
			shards[i].HistogramHandle("h_ms").Observe(float64(i * i))
		}
		return shards
	}
	render := func(shards []*Registry) string {
		merged := NewRegistry()
		for _, s := range shards {
			merged.Merge(s)
		}
		return merged.Render()
	}
	if render(build()) != render(build()) {
		t.Fatal("index-order merge is not deterministic")
	}
}

// TestPreResolvedHandlesInvisibleUntilUsed: components resolve handles at
// construction, often for metrics that never fire in a given run. Those
// must not appear in Snapshot/Render/Merge output — reports stay identical
// to the old create-on-first-emission behavior.
func TestPreResolvedHandlesInvisibleUntilUsed(t *testing.T) {
	r := NewRegistry()
	idle := r.CounterHandle("offload.breaker.opened")
	idleHist := r.HistogramHandle("offload.backoff_ms")
	used := r.CounterHandle("offload.decisions")
	usedHist := r.HistogramHandle("offload.total_ms")
	used.Inc()
	usedHist.Observe(12)

	snap := r.Snapshot()
	if _, ok := snap.Counters["offload.breaker.opened"]; ok {
		t.Fatal("untouched counter handle leaked into Snapshot")
	}
	if _, ok := snap.Histograms["offload.backoff_ms"]; ok {
		t.Fatal("unobserved histogram handle leaked into Snapshot")
	}
	if snap.Counters["offload.decisions"] != 1 {
		t.Fatalf("touched counter = %v, want 1", snap.Counters["offload.decisions"])
	}
	if snap.Histograms["offload.total_ms"].Count != 1 {
		t.Fatal("observed histogram missing from Snapshot")
	}
	if render := r.Render(); strings.Contains(render, "breaker") || strings.Contains(render, "backoff") {
		t.Fatalf("untouched handles leaked into Render:\n%s", render)
	}
	if r.Histogram("offload.backoff_ms") != nil {
		t.Fatal("unobserved histogram should read as absent")
	}

	dst := NewRegistry()
	dst.Merge(r)
	if got := dst.Render(); got != r.Render() {
		t.Fatalf("merge output differs:\n%s\nvs\n%s", got, r.Render())
	}

	// First use makes the handle visible with the right value.
	idle.Add(2)
	idleHist.Observe(5)
	snap = r.Snapshot()
	if snap.Counters["offload.breaker.opened"] != 2 {
		t.Fatalf("counter after first use = %v, want 2", snap.Counters["offload.breaker.opened"])
	}
	if snap.Histograms["offload.backoff_ms"].Count != 1 {
		t.Fatal("histogram after first observe missing")
	}
}

// TestGenerationTracksInterning: samplers rely on Generation moving exactly
// when a counter or histogram is interned, by interning or by Merge, and on
// the log holding those metrics in interning order.
func TestGenerationTracksInterning(t *testing.T) {
	r := NewRegistry()
	g0 := r.Generation()
	c := r.CounterHandle("a")
	if r.Generation() != g0+1 {
		t.Fatalf("generation after counter intern = %d", r.Generation())
	}
	r.CounterHandle("a") // re-resolve: no bump
	c.Add(5)             // value changes: no bump
	if r.Generation() != g0+1 {
		t.Fatal("generation moved without interning")
	}
	h := r.HistogramHandle("h")
	if r.Generation() != g0+2 {
		t.Fatalf("generation after histogram intern = %d", r.Generation())
	}

	src := NewRegistry()
	src.HistogramHandle("h2").Observe(1)
	src.HistogramHandle("h").Observe(2) // exists in r: merged into, not logged again
	r.Merge(src)
	if r.Generation() != g0+3 {
		t.Fatalf("generation after merge with new histogram = %d", r.Generation())
	}

	log := r.InternedSince(0)
	if uint64(len(log)) != r.Generation() {
		t.Fatalf("log holds %d entries at generation %d", len(log), r.Generation())
	}
	if log[0] != (Interned{Name: "a", C: c}) || log[1] != (Interned{Name: "h", H: h}) {
		t.Fatalf("log out of interning order: %+v", log)
	}
	if m := log[2]; m.Name != "h2" || m.C != nil || m.H == nil {
		t.Fatalf("merged histogram logged as %+v", m)
	}
	if tail := r.InternedSince(2); len(tail) != 1 || tail[0] != log[2] {
		t.Fatalf("InternedSince(2) = %+v", tail)
	}
	if len(r.InternedSince(3)) != 0 {
		t.Fatal("InternedSince at the end is not empty")
	}

	var nilReg *Registry
	if nilReg.Generation() != 0 || nilReg.InternedSince(0) != nil {
		t.Fatal("nil registry generation or log")
	}
}

// TestFamily pins the counter family components emit run-time keys
// through: a nil registry hands out nil handles; a key's name is interned
// at its first Get and only then, and a warm Get allocates nothing; a key
// never asked for is never interned, so a family made but not used leaves
// Render and Snapshot as they were.
func TestFamily(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nilRegistry    bool
		prefix, suffix string
		keys           []string // each Get and bumped once, in order
		want           map[string]float64
	}{
		{name: "nil registry", nilRegistry: true, prefix: "offload.execution.",
			keys: []string{"rsu", "rsu"}},
		{name: "prefix", prefix: "offload.execution.",
			keys: []string{"rsu", "cloud", "rsu"},
			want: map[string]float64{"offload.execution.rsu": 2, "offload.execution.cloud": 1}},
		{name: "prefix and suffix", prefix: "edgeos.service.", suffix: ".invocations",
			keys: []string{"alpr", "alpr", "alpr"},
			want: map[string]float64{"edgeos.service.alpr.invocations": 3}},
		{name: "unused", prefix: "vcu.device.", suffix: ".tasks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r *Registry
			if !tc.nilRegistry {
				r = NewRegistry()
				r.CounterHandle("other").Inc()
			}
			var render string
			var snap Snapshot
			if r != nil {
				render, snap = r.Render(), r.Snapshot()
			}
			gen := r.Generation()
			f := r.Family(tc.prefix, tc.suffix)
			for _, k := range tc.keys {
				c := f.Get(k)
				if (c == nil) != tc.nilRegistry {
					t.Fatalf("Get(%q) = %p on a nil registry: %v", k, c, tc.nilRegistry)
				}
				c.Inc()
			}
			if got := r.Generation() - gen; got != uint64(len(tc.want)) {
				t.Fatalf("%d names interned for %d distinct keys", got, len(tc.want))
			}
			for name, v := range tc.want {
				if got := r.Counter(name); got != v {
					t.Fatalf("%s = %v, want %v", name, got, v)
				}
			}
			for _, k := range tc.keys {
				if f.Get(k) != r.CounterHandle(tc.prefix+k+tc.suffix) {
					t.Fatalf("Get(%q) is not the registry's handle", k)
				}
			}
			if len(tc.keys) > 0 {
				if allocs := testing.AllocsPerRun(100, func() { f.Get(tc.keys[0]).Inc() }); allocs != 0 {
					t.Fatalf("warm Get: %v allocs, want 0", allocs)
				}
			}
			if r != nil && len(tc.keys) == 0 {
				if r.Render() != render || !reflect.DeepEqual(r.Snapshot(), snap) {
					t.Fatal("an unused family changed Render or Snapshot")
				}
			}
		})
	}
}

// TestCountSum: the sampler's allocation-free histogram read.
func TestCountSum(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramHandle("lat_ms")
	if c, s := h.CountSum(); c != 0 || s != 0 {
		t.Fatalf("empty CountSum = %d/%v", c, s)
	}
	h.Observe(2)
	h.Observe(3)
	if c, s := h.CountSum(); c != 2 || s != 5 {
		t.Fatalf("CountSum = %d/%v", c, s)
	}
	var nilH *HistogramHandle
	if c, s := nilH.CountSum(); c != 0 || s != 0 {
		t.Fatal("nil CountSum")
	}
	var nilC *Counter
	if nilC.Touched() {
		t.Fatal("nil counter touched")
	}
}

// TestHistogramSampleSlackBounded pins the histogram's memory shape: it
// grows with the distinct values it has seen, not with the samples. 20 000
// observations of 977 values never hold more than 2×977 bins, pending tail
// included, and end as 977 exact counts. A fleet holds a set of these per
// vehicle, all growing in step.
func TestHistogramSampleSlackBounded(t *testing.T) {
	const samples, distinct = 20000, 977
	h := &Histogram{}
	for i := 0; i < samples; i++ {
		h.Observe(float64(i%distinct) + 0.5)
		if cap(h.bins) > 2*distinct {
			t.Fatalf("%d samples of %d values in %d bins of capacity %d", i+1, distinct, len(h.bins), cap(h.bins))
		}
	}
	h.compact()
	if len(h.bins) != distinct || h.Count() != samples {
		t.Fatalf("%d bins for %d values, count %d of %d", len(h.bins), distinct, h.Count(), samples)
	}
	for i, b := range h.bins {
		want := samples / distinct
		if i < samples%distinct {
			want++
		}
		if b.v != float64(i)+0.5 || b.n != want {
			t.Fatalf("bin %d = %v×%d, want %v×%d", i, b.v, b.n, float64(i)+0.5, want)
		}
	}

	// Once a value has a sorted bin, observing it again only counts: NaN
	// and both zeros included.
	h = &Histogram{}
	vals := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1}
	for _, v := range vals {
		h.Observe(v)
	}
	h.compact()
	for i := 0; i < 1000; i++ {
		h.Observe(vals[i%len(vals)])
		if len(h.bins) != 5 {
			t.Fatalf("observing %v again grew the bins to %v", vals[i%len(vals)], h.bins)
		}
	}
}

// TestMergeAllocatesASmallMultipleOfTheResult: merging 1 000 lanes of 24
// samples over 977 shared values into one histogram allocates a small
// multiple of the 977 merged bins, not of the 24 000 samples, and every
// value's count is exact.
func TestMergeAllocatesASmallMultipleOfTheResult(t *testing.T) {
	const lanes, perLane, distinct = 1000, 24, 977
	srcs := make([]*Histogram, lanes)
	for i := range srcs {
		srcs[i] = &Histogram{}
		for k := 0; k < perLane; k++ {
			srcs[i].Observe(float64((i*perLane + k) % distinct))
		}
	}
	dst := &Histogram{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, src := range srcs {
		dst.merge(src)
	}
	runtime.ReadMemStats(&after)

	result := uint64(distinct * unsafe.Sizeof(bin{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*result {
		t.Fatalf("merging %d lanes allocated %d B for %d bins (%d B)", lanes, got, distinct, result)
	}
	dst.compact()
	if dst.Count() != lanes*perLane || len(dst.bins) != distinct {
		t.Fatalf("merged %d samples into %d bins", dst.Count(), len(dst.bins))
	}
	for i, b := range dst.bins {
		want := lanes * perLane / distinct
		if i < lanes*perLane%distinct {
			want++
		}
		if b.v != float64(i) || b.n != want {
			t.Fatalf("bin %d = %v×%d, want %d×%d", i, b.v, b.n, i, want)
		}
	}
}
