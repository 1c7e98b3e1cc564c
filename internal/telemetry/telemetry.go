// Package telemetry is a small virtual-time metrics library used by the
// platform's reporting: counters and quantile histograms keyed by
// name, with deterministic text rendering and a JSON-marshalable snapshot.
// It exists so experiments and long-running scenarios can summarize
// behavior without each component hand-rolling aggregation.
//
// A histogram keeps an exact multiset of its samples: one (value, count)
// bin per distinct value, so a repeated value costs a binary search and no
// memory, and every quantile is the exact nearest-rank one. Merging adds
// bin counts. Memory grows with the distinct values a histogram has seen,
// not with the samples.
//
// Metric names follow a `component.metric` scheme (for example
// `ddi.cache.hits`, `offload.uplink_ms`); histogram names carry their unit
// as a suffix.
//
// Metrics are emitted only through interned handles, resolved once at
// construction time — Registry.CounterHandle / Registry.HistogramHandle,
// or a Registry.Family for counters keyed by a name learned at run time —
// and then bumped: a Counter.Add is a single lock-free CAS and a
// HistogramHandle.Observe takes only that histogram's lock, so per-event
// emission never contends on the registry mutex or re-hashes the metric
// name. Reads by name (Counter, Histogram) are for reports and tests.
package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// its bins — the allocation-free read samplers poll every tick. A nil
// handle reads as empty.
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
	histograms map[string]*HistogramHandle

	// log lists every interned counter and histogram in interning order.
	// It is append-only, and gen == len(log) outside the lock, so a
	// sampler can tell (without the lock) that entries were added and
	// read only those.
	log []Interned
	gen atomic.Uint64
}

// Interned is one entry of a registry's interning log: a counter (C) or a
// histogram (H), never both.
type Interned struct {
	Name string
	C    *Counter
	H    *HistogramHandle
}

// Generation returns how many counters and histograms the registry has
// interned: the length of its interning log. Zero for a nil registry.
func (r *Registry) Generation() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// InternedSince returns the interning log from position from on. Logged
// entries never change, so the caller may read the slice without the
// registry lock; it must not write to it.
func (r *Registry) InternedSince(from int) []Interned {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log[from:len(r.log):len(r.log)]
}

// logLocked appends an interned metric to the log. Callers hold r.mu.
func (r *Registry) logLocked(m Interned) {
	r.log = append(r.log, m)
	r.gen.Add(1)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter, counterRoom),
		histograms: make(map[string]*HistogramHandle),
	}
}

// counterRoom is the counter map's size hint. A fleet vehicle's lane
// interns 22 counters in Instrument and up to 29 by the end of a long run,
// as its families meet new pipelines and paths. Grown a name at a time, a
// Go map holds 28 before its next growth, so an unsized lane map grows
// (1.7 KB) mid-run; sized for 32 it does not.
const counterRoom = 32

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
		r.logLocked(Interned{Name: name, C: c})
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
		r.logLocked(Interned{Name: name, H: hh})
	}
	return hh
}

// Family is the counters named prefix+key+suffix for keys a component
// learns only at run time (a service, a destination, a device). Get
// interns a key's name the first time the key is used and returns the same
// handle after that, so only a key's first use builds the name or takes
// the registry lock. A family from a nil registry hands out nil (inert)
// handles. Get is not safe for concurrent use: a family belongs to one
// component, which emits from one goroutine.
type Family struct {
	reg            *Registry
	prefix, suffix string
	handles        map[string]*Counter
}

// Family returns the counter family prefix+key+suffix. It interns nothing
// until Get is called.
func (r *Registry) Family(prefix, suffix string) Family {
	return Family{reg: r, prefix: prefix, suffix: suffix}
}

// Get returns the counter of key, interning its name on first use.
func (f *Family) Get(key string) *Counter {
	if f.reg == nil {
		return nil
	}
	c, ok := f.handles[key]
	if !ok {
		if f.handles == nil {
			f.handles = make(map[string]*Counter)
		}
		c = f.reg.CounterHandle(f.prefix + key + f.suffix)
		f.handles[key] = c
	}
	return c
}

// Counter returns a counter's value.
func (r *Registry) Counter(name string) float64 {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// mergeCopy is what Merge copies out of a source registry before it takes
// the destination's lock. Merges reuse them through mergeCopies, so a fleet
// merging a thousand lanes allocates only what the destination keeps.
type mergeCopy struct {
	counters []counterCopy
	hists    []histCopy
	bins     []bin
}

type counterCopy struct {
	name string
	v    float64
}

type histCopy struct {
	name string
	h    Histogram // h.bins is bins[end-h.sorted:end], set once bins stops growing
	end  int
}

var mergeCopies = sync.Pool{New: func() any { return new(mergeCopy) }}

// Merge folds src's metrics into r: counters add, and histograms add their
// bins. src is only read, never mutated, and may keep collecting
// afterwards. Merging a registry into itself is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	mc := mergeCopies.Get().(*mergeCopy)
	defer func() {
		mc.counters, mc.hists, mc.bins = mc.counters[:0], mc.hists[:0], mc.bins[:0]
		mergeCopies.Put(mc)
	}()
	// Copy src under its own locks first so the two registries' mutexes
	// are never held together (no ordering constraint between registries).
	// Handle locks nest under their registry's mutex. Each histogram is
	// compacted in place, so only its distinct values are copied.
	src.mu.Lock()
	for _, m := range src.log {
		if m.C != nil {
			if m.C.touched.Load() {
				mc.counters = append(mc.counters, counterCopy{m.Name, m.C.Value()})
			}
			continue
		}
		m.H.mu.Lock()
		if m.H.h.count > 0 {
			m.H.h.compact()
			mc.bins = append(mc.bins, m.H.h.bins...)
			mc.hists = append(mc.hists, histCopy{m.Name, *m.H.h, len(mc.bins)})
		}
		m.H.mu.Unlock()
	}
	src.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range mc.counters {
		r.counterLocked(c.name).Add(c.v)
	}
	for i := range mc.hists {
		hc := &mc.hists[i]
		hc.h.bins = mc.bins[hc.end-hc.h.sorted : hc.end]
		if cur, ok := r.histograms[hc.name]; ok {
			cur.mu.Lock()
			cur.h.merge(&hc.h)
			cur.mu.Unlock()
		} else {
			h := hc.h
			h.bins = slices.Clone(h.bins)
			hh := &HistogramHandle{h: &h}
			r.histograms[hc.name] = hh
			r.logLocked(Interned{Name: hc.name, H: hh})
		}
	}
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
	hh.h.compact()
	return hh.h.clone()
}

// Histogram keeps its samples as an exact multiset — one (value, count) bin
// per distinct value — and answers quantile queries over them exactly: every
// quantile is the one sorting every sample would give. Its memory grows with
// the distinct values it has seen, not with the samples.
//
// The zero value is a valid empty histogram. Read methods never mutate
// state, so concurrent readers of a shared *Histogram are safe as long as
// no Observe runs concurrently (the Registry serializes its own).
type Histogram struct {
	// bins[:sorted] are distinct and ascending in cmp.Compare order (NaN
	// first, −0 equal to +0, the order sort.Float64s gives); bins[sorted:]
	// is a pending tail, unsorted and possibly repeating, that compact
	// folds in.
	bins   []bin
	sorted int
	count  int
	sum    float64
	min    float64
	max    float64
}

// bin is one distinct sample value and how many times it was seen.
type bin struct {
	v float64
	n int
}

// pendingFloor is the pending-tail length below which a histogram never
// compacts, so one of a few distinct values is not re-sorted for each.
const pendingFloor = 8

// clone returns an independent deep copy.
func (h *Histogram) clone() *Histogram {
	cp := *h
	cp.bins = slices.Clone(h.bins)
	return &cp
}

// merge folds src into h: bin counts add, and sum adds src's total. src
// must not be observed into concurrently.
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
	for _, b := range src.bins {
		h.add(b)
	}
}

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
	h.add(bin{v, 1})
}

// add counts b into the sorted bin of its value, or else appends it to the
// pending tail and compacts once the tail is as long as the sorted bins:
// amortised O(log d) for d distinct values.
func (h *Histogram) add(b bin) {
	// The first sorted bin at or above b.v: NaN bins sort first and are
	// below every value, and a NaN b.v can only be the first bin.
	lo, hi := 0, h.sorted
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); h.bins[m].v >= b.v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if b.v != b.v && h.sorted > 0 {
		lo = 0
	}
	if lo < h.sorted && cmp.Compare(h.bins[lo].v, b.v) == 0 {
		h.bins[lo].n += b.n
		return
	}
	h.bins = append(h.bins, b)
	if len(h.bins)-h.sorted >= max(h.sorted, pendingFloor) {
		h.compact()
	}
}

// compact sorts the pending tail into the bins, folding equal values into
// one bin.
func (h *Histogram) compact() {
	if h.sorted == len(h.bins) {
		return
	}
	slices.SortFunc(h.bins, func(a, b bin) int { return cmp.Compare(a.v, b.v) })
	out := 0
	for _, b := range h.bins {
		if out > 0 && cmp.Compare(h.bins[out-1].v, b.v) == 0 {
			h.bins[out-1].n += b.n
			continue
		}
		h.bins[out] = b
		out++
	}
	h.bins = h.bins[:out]
	h.sorted = out
}

// compacted returns h when it has no pending tail, else a compacted copy,
// so reading never reorders a histogram other holders may be reading.
func (h *Histogram) compacted() *Histogram {
	if h.sorted == len(h.bins) {
		return h
	}
	cp := h.clone()
	cp.compact()
	return cp
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int { return h.count }

// Mean returns the average (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// quantile answers a nearest-rank query over compacted, non-empty bins by
// walking their cumulative counts.
func (h *Histogram) quantile(q float64) float64 {
	rank := h.count - 1
	if q <= 0 {
		rank = 0
	} else if q < 1 {
		rank = max(int(math.Ceil(q*float64(h.count)))-1, 0)
	}
	for _, b := range h.bins {
		if rank < b.n {
			return b.v
		}
		rank -= b.n
	}
	return h.bins[len(h.bins)-1].v // a NaN q ranks past the end
}

// HistogramSummary is a JSON-marshalable digest of one histogram. Retained
// is how many samples back the quantiles: all of them, so it equals Count.
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

// Summary digests the histogram. An empty histogram summarizes to all
// zeros (not NaN), keeping the result JSON-marshalable.
func (h *Histogram) Summary() HistogramSummary {
	if h.count == 0 {
		return HistogramSummary{}
	}
	c := h.compacted()
	return HistogramSummary{
		Count:    h.count,
		Retained: h.count,
		Sum:      h.sum,
		Mean:     h.Mean(),
		Min:      h.min,
		P50:      c.quantile(0.50),
		P90:      c.quantile(0.90),
		P95:      c.quantile(0.95),
		P99:      c.quantile(0.99),
		Max:      h.max,
	}
}

// Snapshot is the full registry state, ready for json.Marshal (the
// `/api/v1/metrics` payload).
type Snapshot struct {
	Counters   map[string]float64          `json:"counters"`
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
		Histograms: make(map[string]HistogramSummary, len(r.histograms)),
	}
	for n, c := range r.counters {
		if !c.touched.Load() {
			continue
		}
		snap.Counters[n] = c.Value()
	}
	for n, hh := range r.histograms {
		hh.mu.Lock()
		if hh.h.count > 0 {
			hh.h.compact()
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
		hh.h.compact()
		s := hh.h.Summary()
		hh.mu.Unlock()
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f\n",
			n, s.Count, s.Mean, s.P50, s.P95, s.Max)
	}
	return b.String()
}
