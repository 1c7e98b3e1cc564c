package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Add("invocations", 1)
	r.Add("invocations", 2)
	if got := r.Counter("invocations"); got != 3 {
		t.Fatalf("counter = %v", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %v", got)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Gauge("speed"); ok {
		t.Fatal("unset gauge reported set")
	}
	r.Set("speed", 35)
	r.Set("speed", 70)
	v, ok := r.Gauge("speed")
	if !ok || v != 70 {
		t.Fatalf("gauge = %v, %v", v, ok)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.Sum() != 5050 || h.Mean() != 50.5 {
		t.Fatalf("stats = %d/%v/%v", h.Count(), h.Sum(), h.Mean())
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Quantile(0.95); got != 95 {
		t.Fatalf("p95 = %v", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := h.Max(); got != 100 {
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
		prev := h.Quantile(0)
		for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 1} {
			cur := h.Quantile(q)
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
	r.ObserveDuration("latency", 250*time.Millisecond)
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
	r.Observe("x", 1)
	snap := r.Histogram("x")
	snap.Observe(999)
	if got := r.Histogram("x").Count(); got != 1 {
		t.Fatalf("snapshot mutation leaked: count = %d", got)
	}
}

func TestRenderDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Add("b-counter", 2)
	r.Add("a-counter", 1)
	r.Set("z-gauge", 9)
	r.Observe("m-hist", 5)
	r.Observe("m-hist", 15)
	out1 := r.Render()
	out2 := r.Render()
	if out1 != out2 {
		t.Fatal("render not deterministic")
	}
	for _, want := range []string{"a-counter", "b-counter", "z-gauge", "m-hist", "p95"} {
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
				r.Add("c", 1)
				r.Set("g", float64(i))
				r.Observe("h", float64(i))
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
	// reordering samples under every holder of the histogram.
	h := &Histogram{}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := h.samples; got[0] != 5 || got[4] != 3 {
		t.Fatalf("Quantile reordered samples: %v", got)
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
				r.Observe("h", float64(g*1000+i))
				r.Add("c", 1)
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = r.Render()
				_ = r.Snapshot()
				if h := r.Histogram("h"); h != nil {
					_ = h.Quantile(0.95)
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
	r.Add("ddi.cache.hits", 3)
	r.Set("vcu.devices_online", 4)
	for _, v := range []float64{10, 20, 30, 40} {
		r.Observe("offload.total_ms", v)
	}
	got, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"counters":{"ddi.cache.hits":3},` +
		`"gauges":{"vcu.devices_online":4},` +
		`"histograms":{"offload.total_ms":{"count":4,"retained":4,"sum":100,"mean":25,"min":10,"p50":20,"p90":40,"p95":40,"p99":40,"max":40}}}`
	if string(got) != golden {
		t.Fatalf("snapshot JSON drifted:\n got: %s\nwant: %s", got, golden)
	}
}

func TestSnapshotEmptyAndIsolated(t *testing.T) {
	r := NewRegistry()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("empty registry snapshot not empty: %+v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("empty snapshot not marshalable: %v", err)
	}
	r.Add("c", 1)
	snap = r.Snapshot()
	snap.Counters["c"] = 99
	if got := r.Counter("c"); got != 1 {
		t.Fatalf("snapshot mutation leaked into registry: %v", got)
	}
}

// TestRegistryMerge: counters add, gauges take the source's value, and
// histogram Count/Sum/Min/Max stay exact across a merge.
func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Add("hits", 2)
	b.Add("hits", 3)
	b.Add("only.b", 1)
	a.Set("depth", 4)
	b.Set("depth", 9)
	for _, v := range []float64{1, 2, 3} {
		a.Observe("lat_ms", v)
	}
	for _, v := range []float64{10, 0.5} {
		b.Observe("lat_ms", v)
	}
	b.Observe("only.b_ms", 7)

	a.Merge(b)
	if got := a.Counter("hits"); got != 5 {
		t.Fatalf("merged counter = %v, want 5", got)
	}
	if got := a.Counter("only.b"); got != 1 {
		t.Fatalf("source-only counter = %v, want 1", got)
	}
	if got, _ := a.Gauge("depth"); got != 9 {
		t.Fatalf("merged gauge = %v, want source value 9", got)
	}
	h := a.Histogram("lat_ms")
	if h.Count() != 5 || h.Sum() != 16.5 || h.Min() != 0.5 || h.Max() != 10 {
		t.Fatalf("merged histogram = count %d sum %v min %v max %v",
			h.Count(), h.Sum(), h.Min(), h.Max())
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
			shards[i].Add("n", float64(i))
			shards[i].Set("g", float64(i))
			shards[i].Observe("h_ms", float64(i*i))
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
// when a counter or histogram is interned.
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
	r.HistogramHandle("h")
	r.Set("gauge", 1) // gauges are not sampled: no bump
	if r.Generation() != g0+2 {
		t.Fatalf("generation after histogram intern = %d", r.Generation())
	}

	src := NewRegistry()
	src.Observe("h2", 1)
	r.Merge(src)
	if r.Generation() != g0+3 {
		t.Fatalf("generation after merge with new histogram = %d", r.Generation())
	}
	var nilReg *Registry
	if nilReg.Generation() != 0 {
		t.Fatal("nil registry generation")
	}
}

// TestEachMetricSortedAndComplete: EachMetric enumerates interned handles
// (touched or not) in name order.
func TestEachMetricSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.CounterHandle("z.count")
	r.Add("a.count", 1)
	r.HistogramHandle("m.lat_ms")
	var counters, hists []string
	r.EachMetric(
		func(name string, c *Counter) { counters = append(counters, name) },
		func(name string, h *HistogramHandle) { hists = append(hists, name) },
	)
	if len(counters) != 2 || counters[0] != "a.count" || counters[1] != "z.count" {
		t.Fatalf("counters = %v", counters)
	}
	if len(hists) != 1 || hists[0] != "m.lat_ms" {
		t.Fatalf("hists = %v", hists)
	}
	var nilReg *Registry
	nilReg.EachMetric(nil, nil) // must not panic
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

// TestHistogramSampleSlackBounded pins the histogram's memory shape: every sample kept in order, and never more than an eighth of
// spare capacity once past the small-histogram range. A fleet holds a set
// of these per vehicle, all growing in step.
func TestHistogramSampleSlackBounded(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 20000; i++ {
		h.Observe(float64(i%977) + 0.5)
		n := len(h.samples)
		if n > 2*sampleSlackFrom && cap(h.samples) > n+n/8+64 {
			t.Fatalf("%d samples in a slice of capacity %d", n, cap(h.samples))
		}
	}
	if len(h.samples) != 20000 || h.Count() != 20000 {
		t.Fatalf("kept %d samples of %d", len(h.samples), h.Count())
	}
	for i, v := range h.samples {
		if v != float64(i%977)+0.5 {
			t.Fatalf("sample %d = %v", i, v)
		}
	}
}
