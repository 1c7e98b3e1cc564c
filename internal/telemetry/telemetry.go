// Package telemetry is a small virtual-time metrics library used by the
// platform's reporting: counters, gauges, and quantile histograms keyed by
// name, with deterministic text rendering and a JSON-marshalable snapshot.
// It exists so experiments and long-running scenarios can summarize
// behavior without each component hand-rolling aggregation.
//
// Metric names follow a `component.metric` scheme (for example
// `ddi.cache.hits`, `offload.uplink_ms`); histogram names carry their unit
// as a suffix.
//
// Hot emitters should resolve interned handles once at construction time —
// Registry.CounterHandle / Registry.HistogramHandle — and bump those:
// a Counter.Add is a single lock-free CAS and a HistogramHandle.Observe
// takes only that histogram's lock, so per-event emission never contends
// on the registry mutex or re-hashes the metric name.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is an interned counter handle: a single lock-free float64 cell.
// All methods are nil-safe, so components resolved against a nil registry
// can bump handles unconditionally.
//
// A counter resolved ahead of time but never added to stays invisible to
// Snapshot/Render/Merge (the touched flag), so pre-resolving handles at
// construction cannot change reported output versus creating metrics
// lazily at the first emission.
type Counter struct {
	bits    atomic.Uint64 // float64 bits
	touched atomic.Bool   // set by the first Add
}

// Add increments the counter by delta.
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	if !c.touched.Load() {
		c.touched.Store(true)
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Touched reports whether the counter was ever added to. Samplers use it to
// skip never-bumped pre-resolved handles, mirroring Snapshot/Render/Merge
// visibility.
func (c *Counter) Touched() bool {
	if c == nil {
		return false
	}
	return c.touched.Load()
}

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// HistogramHandle is an interned histogram handle. Observe takes only this
// histogram's lock — never the registry's — and is nil-safe.
type HistogramHandle struct {
	mu sync.Mutex
	h  *Histogram
}

// Observe records a sample.
func (hh *HistogramHandle) Observe(v float64) {
	if hh == nil {
		return
	}
	hh.mu.Lock()
	hh.h.Observe(v)
	hh.mu.Unlock()
}

// ObserveDuration records a duration sample in milliseconds.
func (hh *HistogramHandle) ObserveDuration(d time.Duration) {
	hh.Observe(float64(d) / float64(time.Millisecond))
}

// CountSum returns the histogram's sample count and total without copying
// the samples — the allocation-free read samplers poll every
// tick. A nil handle reads as empty.
func (hh *HistogramHandle) CountSum() (int, float64) {
	if hh == nil {
		return 0, 0
	}
	hh.mu.Lock()
	c, s := hh.h.count, hh.h.sum
	hh.mu.Unlock()
	return c, s
}

// Registry holds named metrics. It is safe for concurrent use (the REST
// tier reaches it from server goroutines). The registry mutex guards the
// name → handle maps; the metric cells themselves are a lock-free Counter
// or a per-histogram lock, so handle-based emission scales independently
// of registry traffic.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]float64
	histograms map[string]*HistogramHandle

	// gen increments whenever a counter or histogram is interned, letting
	// samplers detect (cheaply, without the registry lock) that their cached
	// handle lists went stale.
	gen atomic.Uint64
}

// Generation returns a monotonically increasing value bumped every time a
// new counter or histogram is interned. Zero for a nil registry.
func (r *Registry) Generation() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]float64),
		histograms: make(map[string]*HistogramHandle),
	}
}

// CounterHandle interns name and returns its counter handle. Resolve once
// at component construction; the handle stays valid for the registry's
// lifetime. A nil registry yields a nil (safely inert) handle.
func (r *Registry) CounterHandle(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.counterLocked(name)
	r.mu.Unlock()
	return c
}

func (r *Registry) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.gen.Add(1)
	}
	return c
}

// HistogramHandle interns name and returns its histogram handle. Resolve
// once at component construction. A nil registry yields a nil (safely
// inert) handle.
func (r *Registry) HistogramHandle(name string) *HistogramHandle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hh := r.histogramLocked(name)
	r.mu.Unlock()
	return hh
}

func (r *Registry) histogramLocked(name string) *HistogramHandle {
	hh, ok := r.histograms[name]
	if !ok {
		hh = &HistogramHandle{h: &Histogram{}}
		r.histograms[name] = hh
		r.gen.Add(1)
	}
	return hh
}

// Add increments a counter by name (the convenience path; hot emitters
// should hold a CounterHandle instead).
func (r *Registry) Add(name string, delta float64) {
	r.CounterHandle(name).Add(delta)
}

// Counter returns a counter's value.
func (r *Registry) Counter(name string) float64 {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// Set records a gauge's current value.
func (r *Registry) Set(name string, value float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = value
}

// Gauge returns a gauge's value and whether it was ever set.
func (r *Registry) Gauge(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	return v, ok
}

// Observe records a sample into a histogram by name (hot emitters should
// hold a HistogramHandle instead).
func (r *Registry) Observe(name string, value float64) {
	r.HistogramHandle(name).Observe(value)
}

// Merge folds src's metrics into r: counters add, gauges take src's value
// (so merging shards in replication-index order deterministically keeps the
// highest index's reading), and histograms take the union of both sides'
// samples. src is only read, never mutated, and may keep collecting
// afterwards. Merging a registry into itself is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	// Deep-copy src under its own locks first so the two registries'
	// mutexes are never held together (no ordering constraint between
	// registries). Handle locks nest under their registry's mutex.
	src.mu.Lock()
	counters := make(map[string]float64, len(src.counters))
	for n, c := range src.counters {
		if !c.touched.Load() {
			continue
		}
		counters[n] = c.Value()
	}
	gauges := make(map[string]float64, len(src.gauges))
	for n, v := range src.gauges {
		gauges[n] = v
	}
	hists := make(map[string]*Histogram, len(src.histograms))
	for n, hh := range src.histograms {
		hh.mu.Lock()
		if hh.h.count > 0 {
			hists[n] = hh.h.clone()
		}
		hh.mu.Unlock()
	}
	src.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for n, v := range counters {
		r.counterLocked(n).Add(v)
	}
	for n, v := range gauges {
		r.gauges[n] = v
	}
	for n, h := range hists {
		if cur, ok := r.histograms[n]; ok {
			cur.mu.Lock()
			cur.h.merge(h)
			cur.mu.Unlock()
		} else {
			r.histograms[n] = &HistogramHandle{h: h}
			r.gen.Add(1)
		}
	}
}

// EachMetric calls counterFn for every interned counter and histFn for every
// interned histogram, each in name-sorted order, under the registry lock.
// Untouched counters and never-observed histograms are included — callers
// that mirror report visibility filter with Counter.Touched / CountSum.
// Callbacks must not call back into the registry. Either callback may be
// nil to skip that metric class.
func (r *Registry) EachMetric(counterFn func(name string, c *Counter), histFn func(name string, h *HistogramHandle)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if counterFn != nil {
		names := make([]string, 0, len(r.counters))
		for n := range r.counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			counterFn(n, r.counters[n])
		}
	}
	if histFn != nil {
		names := make([]string, 0, len(r.histograms))
		for n := range r.histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			histFn(n, r.histograms[n])
		}
	}
}

// ObserveDuration records a duration sample in milliseconds.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, float64(d)/float64(time.Millisecond))
}

// Histogram returns an isolated copy of the named histogram (nil if absent
// or never observed into). The copy keeps collecting independently if
// observed into.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	hh, ok := r.histograms[name]
	r.mu.Unlock()
	if !ok {
		return nil
	}
	hh.mu.Lock()
	defer hh.mu.Unlock()
	if hh.h.count == 0 {
		return nil
	}
	return hh.h.clone()
}

// Histogram keeps every sample it is given and answers quantile queries
// over them exactly.
//
// The zero value is a valid empty histogram. Read methods never mutate
// state, so concurrent readers of a shared *Histogram are safe as long as
// no Observe runs concurrently (the Registry serializes its own).
type Histogram struct {
	samples []float64
	count   int
	sum     float64
	min     float64
	max     float64
}

// clone returns an independent deep copy.
func (h *Histogram) clone() *Histogram {
	cp := *h
	cp.samples = append([]float64(nil), h.samples...)
	return &cp
}

// merge folds src into h, appending src's samples in order. src must not
// be observed into concurrently.
func (h *Histogram) merge(src *Histogram) {
	if src == nil || src.count == 0 {
		return
	}
	if h.count == 0 || src.min < h.min {
		h.min = src.min
	}
	if h.count == 0 || src.max > h.max {
		h.max = src.max
	}
	h.count += src.count
	h.sum += src.sum
	h.samples = append(h.samples, src.samples...)
}

// sampleSlackFrom is the sample count from which Observe grows the sample
// slice itself rather than leaving it to append.
const sampleSlackFrom = 256

// Observe adds a sample.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if n := len(h.samples); n == cap(h.samples) && n >= sampleSlackFrom {
		// append would grow by a quarter and round up to a size class.
		// A fleet keeps thousands of histograms (one set per vehicle)
		// growing in step, so that slack is a fifth of the live heap;
		// an eighth keeps appends amortised O(1) at half of it.
		grown := make([]float64, n, n+n/8)
		copy(grown, h.samples)
		h.samples = grown
	}
	h.samples = append(h.samples, v)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int { return h.count }

// Sum returns the exact sample total.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the average (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank; NaN with
// no samples. It sorts a private copy, leaving sample order untouched, so
// holders of histogram copies never see their samples reordered.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), h.samples...)
	sort.Float64s(sorted)
	return quantileOf(sorted, q)
}

// quantileOf answers a nearest-rank query over pre-sorted samples.
func quantileOf(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Min returns the smallest sample ever observed (NaN with none).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the largest sample ever observed (NaN with none).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.max
}

// HistogramSummary is a JSON-marshalable digest of one histogram. Retained
// is how many samples back the quantiles; it equals Count while histograms
// keep every sample.
type HistogramSummary struct {
	Count    int     `json:"count"`
	Retained int     `json:"retained"`
	Sum      float64 `json:"sum"`
	Mean     float64 `json:"mean"`
	Min      float64 `json:"min"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	Max      float64 `json:"max"`
}

// Summary digests the histogram, sorting the samples once. An
// empty histogram summarizes to all zeros (not NaN), keeping the result
// JSON-marshalable.
func (h *Histogram) Summary() HistogramSummary {
	if h.count == 0 {
		return HistogramSummary{}
	}
	sorted := append([]float64(nil), h.samples...)
	sort.Float64s(sorted)
	return HistogramSummary{
		Count:    h.count,
		Retained: len(h.samples),
		Sum:      h.sum,
		Mean:     h.Mean(),
		Min:      h.min,
		P50:      quantileOf(sorted, 0.50),
		P90:      quantileOf(sorted, 0.90),
		P95:      quantileOf(sorted, 0.95),
		P99:      quantileOf(sorted, 0.99),
		Max:      h.max,
	}
}

// Snapshot is the full registry state, ready for json.Marshal (the
// `/api/v1/metrics` payload).
type Snapshot struct {
	Counters   map[string]float64          `json:"counters"`
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// Snapshot copies every metric into a self-contained, JSON-marshalable
// struct. Maps are freshly allocated; mutating the snapshot cannot touch
// the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSummary, len(r.histograms)),
	}
	for n, c := range r.counters {
		if !c.touched.Load() {
			continue
		}
		snap.Counters[n] = c.Value()
	}
	for n, v := range r.gauges {
		snap.Gauges[n] = v
	}
	for n, hh := range r.histograms {
		hh.mu.Lock()
		if hh.h.count > 0 {
			snap.Histograms[n] = hh.h.Summary()
		}
		hh.mu.Unlock()
	}
	return snap
}

// Render produces a deterministic multi-line summary of every metric,
// sorted by name.
func (r *Registry) Render() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(r.counters))
	for n, c := range r.counters {
		if c.touched.Load() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %-40s %.2f\n", n, r.counters[n].Value())
	}
	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge   %-40s %.2f\n", n, r.gauges[n])
	}
	names = names[:0]
	for n, hh := range r.histograms {
		hh.mu.Lock()
		if hh.h.count > 0 {
			names = append(names, n)
		}
		hh.mu.Unlock()
	}
	sort.Strings(names)
	for _, n := range names {
		hh := r.histograms[n]
		hh.mu.Lock()
		s := hh.h.Summary()
		hh.mu.Unlock()
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f\n",
			n, s.Count, s.Mean, s.P50, s.P95, s.Max)
	}
	return b.String()
}
