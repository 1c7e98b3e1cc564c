// Package trace is a deterministic, virtual-time span tracer for the
// OpenVDAP reproduction. Components open spans stamped from the simulation
// clock; nested calls produce parent/child links automatically (the tracer
// keeps an open-span stack, which is well-defined because the simulation
// kernel is single-threaded). Two exporters render a finished trace: a
// human-readable tree and Chrome trace_event JSON that opens directly in
// chrome://tracing or Perfetto.
//
// Every method is nil-safe on both *Tracer and *Span, so instrumented
// components carry an optional tracer without guarding each call site.
// Because all timestamps come from the virtual clock and span identifiers
// are assigned in creation order, two runs with the same seed export
// byte-identical traces.
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Attr is one key-value annotation on a span. Values are pre-rendered to
// strings so export is allocation-light and deterministic.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// F64 builds a float attribute with stable two-decimal rendering.
func F64(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'f', 2, 64)}
}

// Dur builds a duration attribute.
func Dur(key string, d time.Duration) Attr { return Attr{Key: key, Value: d.String()} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: strconv.FormatBool(v)} }

// Span is one timed operation in the trace tree. Start and End are virtual
// times. Fields are read by exporters under the tracer's lock; mutate only
// through Span methods.
type Span struct {
	tracer    *Tracer
	id        int
	Name      string
	Component string
	Start     time.Duration
	End       time.Duration
	Attrs     []Attr
	Parent    *Span
	Children  []*Span
	finished  bool
}

// DefaultSpanLimit bounds span memory for long runs: past it new spans are
// dropped (and counted), keeping fleet-scale experiments O(limit).
const DefaultSpanLimit = 200_000

// Tracer collects spans stamped in virtual time.
type Tracer struct {
	mu      sync.Mutex
	roots   []*Span
	stack   []*Span
	nextID  int
	limit   int
	dropped int
}

// Enabled reports whether spans are being recorded. Hot call sites guard
// attribute construction with it so disabled tracing (a nil *Tracer) costs
// zero allocations:
//
//	if tr.Enabled() {
//		tr.SpanAt("network", "network.uplink", a, b, trace.F64("bytes", n))
//	}
func (t *Tracer) Enabled() bool { return t != nil }

// New returns an empty tracer. It reads no clock: every span is stamped by
// its caller (StartSpanAt, SpanAt, FinishAt).
func New() *Tracer { return &Tracer{limit: DefaultSpanLimit} }

// SetSpanLimit changes the span cap. Non-positive restores the default.
func (t *Tracer) SetSpanLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = DefaultSpanLimit
	}
	t.limit = n
}

// StartSpanAt opens a span at an explicit virtual time (schedulers and
// estimators time-stamp spans from computed timelines, not a live clock)
// and makes it the parent of spans started before it finishes.
func (t *Tracer) StartSpanAt(component, name string, start time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(component, name, start, attrs)
	if s != nil {
		t.stack = append(t.stack, s)
	}
	return s
}

// SpanAt records an already-bounded leaf span (start..end) under the
// currently open span without becoming a parent itself.
func (t *Tracer) SpanAt(component, name string, start, end time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(component, name, start, attrs)
	if s != nil {
		s.End = end
		s.finished = true
	}
	return s
}

// newSpanLocked allocates a span under the cap and links it to the current
// stack top. Callers hold t.mu.
func (t *Tracer) newSpanLocked(component, name string, start time.Duration, attrs []Attr) *Span {
	if t.nextID >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{
		tracer:    t,
		id:        t.nextID,
		Name:      name,
		Component: component,
		Start:     start,
		End:       start,
		Attrs:     attrs,
	}
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		s.Parent = parent
		parent.Children = append(parent.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	return s
}

// FinishAt closes the span at an explicit virtual time and pops it from the
// open-span stack (out-of-order finishes unwind through it).
func (s *Span) FinishAt(end time.Duration) {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.finished {
		return
	}
	if end < s.Start {
		end = s.Start
	}
	s.End = end
	s.finished = true
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// SetAttr appends attributes to an open or finished span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.Attrs = append(s.Attrs, attrs...)
}

// ID returns the span's creation-order identifier (1-based).
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// Roots returns the top-level spans in creation order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	copy(out, t.roots)
	return out
}

// SpanCount returns how many spans were recorded (dropped ones excluded).
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// Dropped returns how many spans the cap discarded.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Merge deep-copies src's span forest into t, appending src's roots (in
// their creation order) after t's existing roots. Copied spans are
// renumbered in walk order, so merging per-shard tracers in replication
// index order yields the same trace no matter how many workers recorded
// them. Subtrees past t's span cap are dropped and counted, and src's own
// dropped count carries over. src is never mutated, but it must be
// quiescent (no spans being opened or finished) while Merge reads it —
// replication harnesses merge only after their workers have exited.
// Merging a tracer into itself, or merging nil, is a no-op.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	var clone func(s *Span, parent *Span)
	clone = func(s *Span, parent *Span) {
		if t.nextID >= t.limit {
			t.dropped += subtreeSize(s)
			return
		}
		t.nextID++
		cp := &Span{
			tracer:    t,
			id:        t.nextID,
			Name:      s.Name,
			Component: s.Component,
			Start:     s.Start,
			End:       s.End,
			Attrs:     append([]Attr(nil), s.Attrs...),
			Parent:    parent,
			finished:  true,
		}
		if parent != nil {
			parent.Children = append(parent.Children, cp)
		} else {
			t.roots = append(t.roots, cp)
		}
		for _, c := range s.Children {
			clone(c, cp)
		}
	}
	for _, r := range src.roots {
		clone(r, nil)
	}
	t.dropped += src.dropped
}

// subtreeSize counts a span and all its descendants.
func subtreeSize(s *Span) int {
	n := 1
	for _, c := range s.Children {
		n += subtreeSize(c)
	}
	return n
}

// Components returns the sorted set of component names present in the
// trace.
func (t *Tracer) Components() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	var walk func(s *Span)
	walk = func(s *Span) {
		seen[s.Component] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	return sortedKeys(seen)
}
