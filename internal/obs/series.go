package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// SeriesKind says how a series' points are produced and merged.
type SeriesKind int

const (
	// KindCounter points are cumulative counts; merge sums pointwise and
	// export derives windowed rates.
	KindCounter SeriesKind = iota
	// KindGauge points are instantaneous readings; merge is last-wins.
	KindGauge
	// KindHistogram points carry cumulative (count, sum) pairs; merge sums
	// pointwise and export derives sample rates.
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

// String renders the kind's lowercase name.
func (k SeriesKind) String() string {
	if k < KindCounter || k > KindHistogram {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// DefaultSeriesCapacity bounds each series ring when the caller passes no
// capacity.
const DefaultSeriesCapacity = 1024

// DefaultSampleInterval is the sampler's virtual-time tick period when the
// caller passes none.
const DefaultSampleInterval = 100 * time.Millisecond

// Series is one metric's ring of (virtual time, value) points. For
// histograms the auxiliary array carries the cumulative sum alongside the
// cumulative count. When the ring fills, the oldest point is overwritten
// and counted as dropped.
type Series struct {
	name  string
	kind  SeriesKind
	times []int64 // virtual ns
	v     []float64
	aux   []float64 // histogram cumulative sum; nil otherwise
	start int
	n     int

	dropped int

	// stage/stageAux accumulate one tick's cross-lane sums before the
	// sampler appends a single fleet-level point (see Sampler.SampleAt).
	stage    float64
	stageAux float64
}

// append pushes one point, overwriting the oldest when full. Callers hold
// the owning store's lock.
func (se *Series) append(atNs int64, v, aux float64) {
	if se.n == len(se.times) {
		se.times[se.start] = atNs
		se.v[se.start] = v
		if se.aux != nil {
			se.aux[se.start] = aux
		}
		se.start = (se.start + 1) % len(se.times)
		se.dropped++
		return
	}
	i := (se.start + se.n) % len(se.times)
	se.times[i] = atNs
	se.v[i] = v
	if se.aux != nil {
		se.aux[i] = aux
	}
	se.n++
}

// point returns the k-th retained point (0 = oldest). Callers hold the
// owning store's lock.
func (se *Series) point(k int) (atNs int64, v, aux float64) {
	i := (se.start + k) % len(se.times)
	if se.aux != nil {
		return se.times[i], se.v[i], se.aux[i]
	}
	return se.times[i], se.v[i], 0
}

// SeriesStore holds every metric series of one run (or one lane of a
// sharded run). It is safe for concurrent use: the sampler appends under
// the store lock while the REST tier exports payloads.
type SeriesStore struct {
	mu  sync.Mutex
	cap int
	m   map[string]*Series
}

// NewSeriesStore returns an empty store whose series each retain at most
// capacity points (DefaultSeriesCapacity when non-positive).
func NewSeriesStore(capacity int) *SeriesStore {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &SeriesStore{cap: capacity, m: make(map[string]*Series)}
}

// ensureLocked interns a series. Callers hold s.mu.
func (s *SeriesStore) ensureLocked(name string, kind SeriesKind) *Series {
	se, ok := s.m[name]
	if ok {
		return se
	}
	se = &Series{
		name:  name,
		kind:  kind,
		times: make([]int64, s.cap),
		v:     make([]float64, s.cap),
	}
	if kind == KindHistogram {
		se.aux = make([]float64, s.cap)
	}
	s.m[name] = se
	return se
}

// RecordGauge appends an instantaneous reading to the named gauge series.
// Unlike counters and histograms — which the Sampler snapshots on its tick —
// gauge series are fed explicitly by whoever computes the reading.
func (s *SeriesStore) RecordGauge(name string, at time.Duration, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ensureLocked(name, KindGauge).append(int64(at), v, 0)
	s.mu.Unlock()
}

// Watermark returns the largest point timestamp across all series (zero
// when empty).
func (s *SeriesStore) Watermark() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for _, se := range s.m {
		if se.n == 0 {
			continue
		}
		t, _, _ := se.point(se.n - 1)
		if t > max {
			max = t
		}
	}
	return time.Duration(max)
}

// seriesPoints snapshots one series' retained points in time order.
type seriesPoints struct {
	kind    SeriesKind
	dropped int
	t       []int64
	v       []float64
	aux     []float64
}

// snapshotLocked copies a series' points. Callers hold the store lock.
func (se *Series) snapshotLocked() seriesPoints {
	sp := seriesPoints{
		kind:    se.kind,
		dropped: se.dropped,
		t:       make([]int64, se.n),
		v:       make([]float64, se.n),
	}
	if se.aux != nil {
		sp.aux = make([]float64, se.n)
	}
	for k := 0; k < se.n; k++ {
		t, v, aux := se.point(k)
		sp.t[k] = t
		sp.v[k] = v
		if sp.aux != nil {
			sp.aux[k] = aux
		}
	}
	return sp
}

// Merge folds src's series into s on the union of their timestamps:
// counter and histogram points (cumulative) sum pointwise with values
// carried forward across each side's gaps, gauges take src's reading at
// shared timestamps. Merging replica stores in index order therefore yields
// the same fleet-level series no matter how many workers recorded them. src
// is only read; merging a store into itself or merging nil is a no-op.
func (s *SeriesStore) Merge(src *SeriesStore) {
	if s == nil || src == nil || s == src {
		return
	}
	src.mu.Lock()
	names := make([]string, 0, len(src.m))
	for n := range src.m {
		names = append(names, n)
	}
	sort.Strings(names)
	snaps := make([]seriesPoints, len(names))
	for i, n := range names {
		snaps[i] = src.m[n].snapshotLocked()
	}
	src.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, name := range names {
		sp := snaps[i]
		dst := s.ensureLocked(name, sp.kind)
		ds := dst.snapshotLocked()
		t, v, aux := mergePoints(ds, sp)
		// Rewrite the ring from the merged union, keeping the newest cap
		// points.
		droppedBefore := dst.dropped + sp.dropped
		dst.start, dst.n, dst.dropped = 0, 0, droppedBefore
		lo := 0
		if len(t) > len(dst.times) {
			lo = len(t) - len(dst.times)
			dst.dropped += lo
		}
		for k := lo; k < len(t); k++ {
			dst.append(t[k], v[k], aux[k])
		}
	}
}

// mergePoints unions two time-ordered point sets. Cumulative kinds
// (counter, histogram) sum with carry-forward; gauges prefer b's reading on
// shared timestamps and otherwise interleave.
func mergePoints(a, b seriesPoints) (t []int64, v, aux []float64) {
	auxAt := func(sp seriesPoints, i int) float64 {
		if sp.aux != nil {
			return sp.aux[i]
		}
		return 0
	}
	cumulative := a.kind != KindGauge
	var lastAV, lastAX, lastBV, lastBX float64
	i, j := 0, 0
	for i < len(a.t) || j < len(b.t) {
		var at int64
		switch {
		case i >= len(a.t):
			at = b.t[j]
		case j >= len(b.t):
			at = a.t[i]
		case a.t[i] <= b.t[j]:
			at = a.t[i]
		default:
			at = b.t[j]
		}
		tookB := false
		var bV, bX float64
		if i < len(a.t) && a.t[i] == at {
			lastAV, lastAX = a.v[i], auxAt(a, i)
			i++
		}
		if j < len(b.t) && b.t[j] == at {
			lastBV, lastBX = b.v[j], auxAt(b, j)
			bV, bX = lastBV, lastBX
			tookB = true
			j++
		}
		t = append(t, at)
		if cumulative {
			v = append(v, lastAV+lastBV)
			aux = append(aux, lastAX+lastBX)
		} else if tookB {
			v = append(v, bV)
			aux = append(aux, bX)
		} else {
			v = append(v, lastAV)
			aux = append(aux, lastAX)
		}
	}
	return t, v, aux
}

// SeriesPayload is one series' JSON export: delta-encoded timestamps plus
// values and, for cumulative kinds, windowed per-second rates.
type SeriesPayload struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Points int    `json:"points"`
	// BaseNs is the first included point's virtual timestamp; DtNs[i] is
	// the gap to point i+1 (len Points-1).
	BaseNs int64   `json:"baseNs"`
	DtNs   []int64 `json:"dtNs,omitempty"`
	// V holds counter counts, gauge readings, or histogram sample counts.
	V []float64 `json:"v"`
	// Sum holds histogram cumulative sums (histogram kind only).
	Sum []float64 `json:"sum,omitempty"`
	// Rate holds windowed per-second rates for cumulative kinds.
	Rate    []float64 `json:"ratePerSec,omitempty"`
	Dropped int       `json:"dropped,omitempty"`
}

// Payload is the `/api/v1/metrics/series` response body.
type Payload struct {
	WatermarkNs int64           `json:"watermarkNs"`
	Series      []SeriesPayload `json:"series"`
}

// Frame is one `/api/v1/stream` chunk: everything that happened since the
// previous watermark.
type Frame struct {
	WatermarkNs int64    `json:"watermarkNs"`
	Series      *Payload `json:"series,omitempty"`
	Events      []Event  `json:"events,omitempty"`
	// Final marks the last frame of a draining server: the stream ends
	// cleanly after it and clients should not reconnect.
	Final bool `json:"final,omitempty"`
}

// Payload exports every series, sorted by name, keeping only points
// strictly after since (pass a negative since for all points). Windowed
// rates use each point's true predecessor even when it falls before the
// window.
func (s *SeriesStore) Payload(since time.Duration) Payload {
	return s.PayloadUntil(since, math.MaxInt64)
}

// PayloadUntil is Payload cut off at until: only points in (since, until],
// with the watermark capped at until.
func (s *SeriesStore) PayloadUntil(since, until time.Duration) Payload {
	p := Payload{Series: []SeriesPayload{}}
	if s == nil {
		return p
	}
	p.WatermarkNs = int64(min(s.Watermark(), until))
	s.mu.Lock()
	names := make([]string, 0, len(s.m))
	for n := range s.m {
		names = append(names, n)
	}
	sort.Strings(names)
	snaps := make([]seriesPoints, len(names))
	for i, n := range names {
		snaps[i] = s.m[n].snapshotLocked()
	}
	s.mu.Unlock()

	for i, name := range names {
		sp := snaps[i]
		lo, hi := 0, len(sp.t)
		for lo < hi && since >= 0 && time.Duration(sp.t[lo]) <= since {
			lo++
		}
		for hi > lo && time.Duration(sp.t[hi-1]) > until {
			hi--
		}
		if lo == hi {
			continue
		}
		out := SeriesPayload{
			Name:    name,
			Kind:    sp.kind.String(),
			Points:  hi - lo,
			BaseNs:  sp.t[lo],
			Dropped: sp.dropped,
		}
		for k := lo; k < hi; k++ {
			if k > lo {
				out.DtNs = append(out.DtNs, sp.t[k]-sp.t[k-1])
			}
			out.V = append(out.V, sp.v[k])
			if sp.kind == KindHistogram {
				out.Sum = append(out.Sum, sp.aux[k])
			}
			if sp.kind != KindGauge {
				out.Rate = append(out.Rate, windowedRate(sp, k))
			}
		}
		p.Series = append(p.Series, out)
	}
	return p
}

// windowedRate computes the per-second increase of a cumulative series at
// point k over the window from its predecessor (or from t=0 with value 0
// for the first point).
func windowedRate(sp seriesPoints, k int) float64 {
	var prevT int64
	var prevV float64
	if k > 0 {
		prevT, prevV = sp.t[k-1], sp.v[k-1]
	}
	dt := sp.t[k] - prevT
	if dt <= 0 {
		return 0
	}
	return (sp.v[k] - prevV) / (float64(dt) / float64(time.Second))
}

// Render produces a deterministic one-line-per-series text summary, sorted
// by name.
func (s *SeriesStore) Render() string {
	p := s.Payload(-1)
	var b strings.Builder
	for _, sp := range p.Series {
		last := sp.V[len(sp.V)-1]
		end := sp.BaseNs
		for _, dt := range sp.DtNs {
			end += dt
		}
		fmt.Fprintf(&b, "series %-40s %-9s points=%-4d span=%s..%s last=%.2f",
			sp.Name, sp.Kind, sp.Points,
			fmtDuration(time.Duration(sp.BaseNs)), fmtDuration(time.Duration(end)), last)
		if len(sp.Rate) > 0 {
			fmt.Fprintf(&b, " rate=%.2f/s", sp.Rate[len(sp.Rate)-1])
		}
		if len(sp.Sum) > 0 {
			fmt.Fprintf(&b, " sum=%.2f", sp.Sum[len(sp.Sum)-1])
		}
		if sp.Dropped > 0 {
			fmt.Fprintf(&b, " dropped=%d", sp.Dropped)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// laneCounter is one registry counter the sampler polls each tick. The
// series pointer stays nil until the counter is first touched, mirroring
// snapshot visibility (pre-resolved but never-bumped handles produce no
// series).
type laneCounter struct {
	name string
	c    *telemetry.Counter
	s    *Series
}

// laneHist is one registry histogram likewise, visible from its first
// sample.
type laneHist struct {
	name string
	h    *telemetry.HistogramHandle
	s    *Series
}

// samplerLane is one watched registry with its handles in interning order.
// Together the two lists hold a prefix of the registry's interning log.
type samplerLane struct {
	reg      *telemetry.Registry
	counters []laneCounter
	hists    []laneHist
}

// resync appends the handles the registry interned since the lane last
// looked. Bound series stay bound: nothing is rebuilt or sorted.
func (ln *samplerLane) resync() {
	for _, m := range ln.reg.InternedSince(len(ln.counters) + len(ln.hists)) {
		if m.C != nil {
			ln.counters = append(ln.counters, laneCounter{name: m.Name, c: m.C})
		} else {
			ln.hists = append(ln.hists, laneHist{name: m.Name, h: m.H})
		}
	}
}

// Sampler snapshots every watched registry's counters and histograms into a
// SeriesStore on a virtual-time tick. Watching several registries (sharded
// fleets keep one telemetry lane per vehicle) stages per-lane values into a
// single fleet-level point per metric per tick, so the recorded series are
// identical for any shard or worker count.
//
// A tick costs one read per interned metric per lane and one append per
// visible series, with no map lookup. A lane whose registry interned k
// new metrics since the last tick takes the registry lock once and appends
// those k handles; a series is created once, the first time its metric
// becomes visible. Ticks that intern nothing and make nothing newly
// visible allocate nothing.
//
// Sampler is not safe for concurrent use with itself; schedule SampleAt
// from a single simulation kernel (Start). The store it writes to may be
// read concurrently.
type Sampler struct {
	store    *SeriesStore
	interval time.Duration
	lanes    []*samplerLane
	active   []*Series
	isActive map[*Series]bool
	ticks    int
}

// NewSampler returns a sampler appending to store every interval of virtual
// time (DefaultSampleInterval when non-positive).
func NewSampler(store *SeriesStore, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{store: store, interval: interval, isActive: make(map[*Series]bool)}
}

// Store returns the series store the sampler appends to.
func (sp *Sampler) Store() *SeriesStore { return sp.store }

// Ticks returns how many samples have been taken.
func (sp *Sampler) Ticks() int { return sp.ticks }

// Watch adds a registry lane. Lanes contribute to shared metric series in
// the order they were added — add them in canonical merge order (injector
// first, vehicles by index) for shard-count-independent output. A nil
// registry is ignored.
func (sp *Sampler) Watch(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	sp.lanes = append(sp.lanes, &samplerLane{reg: reg})
}

// activateLocked interns a metric's series and registers it for per-tick
// appends (once per sampler, so a restarted sampler on the same store
// resumes every series). It runs when a lane first sees a metric visible,
// never on a steady tick. Callers hold the store lock.
func (sp *Sampler) activateLocked(name string, kind SeriesKind) *Series {
	se := sp.store.ensureLocked(name, kind)
	if !sp.isActive[se] {
		sp.isActive[se] = true
		sp.active = append(sp.active, se)
	}
	return se
}

// SampleAt takes one sample at virtual time now: every visible counter and
// histogram across all lanes becomes one appended point per metric. Each
// series sums its lanes' values in lane order.
func (sp *Sampler) SampleAt(now time.Duration) {
	for _, ln := range sp.lanes {
		if ln.reg.Generation() != uint64(len(ln.counters)+len(ln.hists)) {
			ln.resync()
		}
	}
	sp.store.mu.Lock()
	for _, ln := range sp.lanes {
		for i := range ln.counters {
			lc := &ln.counters[i]
			if lc.s == nil {
				if !lc.c.Touched() {
					continue
				}
				lc.s = sp.activateLocked(lc.name, KindCounter)
			}
			lc.s.stage += lc.c.Value()
		}
		for i := range ln.hists {
			lh := &ln.hists[i]
			count, sum := lh.h.CountSum()
			if lh.s == nil {
				if count == 0 {
					continue
				}
				lh.s = sp.activateLocked(lh.name, KindHistogram)
			}
			lh.s.stage += float64(count)
			lh.s.stageAux += sum
		}
	}
	atNs := int64(now)
	for _, se := range sp.active {
		se.append(atNs, se.stage, se.stageAux)
		se.stage, se.stageAux = 0, 0
	}
	sp.store.mu.Unlock()
	sp.ticks++
}

// Start takes an immediate baseline sample and schedules one every interval
// of virtual time on eng. The returned stop cancels the periodic tick.
func (sp *Sampler) Start(eng *sim.Engine) (stop func(), err error) {
	if eng == nil {
		return nil, fmt.Errorf("obs: Start needs an engine")
	}
	sp.SampleAt(eng.Now())
	return eng.Every(sp.interval, func() { sp.SampleAt(eng.Now()) })
}
