// Package trace is a deterministic, virtual-time span tracer for the
// OpenVDAP reproduction. Components open spans stamped from the simulation
// clock; nested calls produce parent/child links automatically (the tracer
// keeps an open-span stack, which is well-defined because the simulation
// kernel is single-threaded). Two exporters render a finished trace: a
// human-readable tree and Chrome trace_event JSON that opens directly in
// chrome://tracing or Perfetto.
//
// Recording allocates nothing per span. The tracer stores spans by value in
// fixed-capacity slabs and copies their attributes into a chunked arena it
// owns, so a call site's variadic attributes stay on its stack; children
// and roots are identifier links, not slices. Attributes keep their raw
// values and are formatted only when an exporter renders them.
//
// Every method is nil-safe on both *Tracer and *Span, so instrumented
// components carry an optional tracer and call it unguarded: the recording
// methods are nil checks the compiler inlines in front of their bodies, and
// building attributes formats nothing, so a call on a nil tracer costs a
// few nanoseconds and no allocation.
// Because all timestamps come from the virtual clock and span identifiers
// are assigned in creation order, two runs with the same seed export
// byte-identical traces.
package trace

import (
	"math"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// Attr is one key-value annotation on a span. It keeps its raw value — a
// string, or the bits of an int, float, duration or bool plus their kind —
// and formats nothing until an exporter asks for Value, so building one
// costs no allocation and a span dropped at the cap renders nothing.
//
// The value takes 16 bytes, so an Attr is as small as a key-value string
// pair, which keeps a tracer full at its cap small: ptr is a string's data
// and n its length, or ptr is the address of the kind's tag byte and n the
// value's bits. No string data lives at a tag's address, and an empty
// string keeps a nil ptr, so the two cannot be confused.
type Attr struct {
	Key string
	ptr unsafe.Pointer
	n   uint64
}

// Non-string kinds, as indexes of kindTags.
const (
	kindInt = iota
	kindF64
	kindDur
	kindBool
)

// kindTags gives each non-string kind an address of its own for Attr.ptr.
var kindTags [4]byte

// tagged builds a non-string attribute of the given kind.
func tagged(key string, kind int, bits uint64) Attr {
	return Attr{Key: key, ptr: unsafe.Pointer(&kindTags[kind]), n: bits}
}

// String builds a string attribute.
func String(key, value string) Attr {
	if value == "" {
		return Attr{Key: key}
	}
	return Attr{Key: key, ptr: unsafe.Pointer(unsafe.StringData(value)), n: uint64(len(value))}
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return tagged(key, kindInt, uint64(v)) }

// F64 builds a float attribute with stable two-decimal rendering.
func F64(key string, v float64) Attr { return tagged(key, kindF64, math.Float64bits(v)) }

// Dur builds a duration attribute.
func Dur(key string, d time.Duration) Attr { return tagged(key, kindDur, uint64(d)) }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	if v {
		return tagged(key, kindBool, 1)
	}
	return tagged(key, kindBool, 0)
}

// Value renders the attribute's value: strconv's decimal for an int, two
// fixed decimals for a float, Duration.String for a duration and
// strconv.FormatBool for a bool.
func (a Attr) Value() string {
	switch a.ptr {
	case unsafe.Pointer(&kindTags[kindInt]):
		return strconv.Itoa(int(a.n))
	case unsafe.Pointer(&kindTags[kindF64]):
		return strconv.FormatFloat(math.Float64frombits(a.n), 'f', 2, 64)
	case unsafe.Pointer(&kindTags[kindDur]):
		return time.Duration(a.n).String()
	case unsafe.Pointer(&kindTags[kindBool]):
		return strconv.FormatBool(a.n != 0)
	}
	return unsafe.String((*byte)(a.ptr), int(a.n))
}

// Span is one timed operation in the trace tree. Start and End are virtual
// times. A span lives in its tracer's slab, so a *Span handle stays valid
// for the tracer's life. Fields and links are read by exporters under the
// tracer's lock (tests read them once the tracer is quiescent); mutate only
// through Span methods. A span is open while it is on its tracer's
// open-span stack.
type Span struct {
	tracer    *Tracer
	Name      string
	Component string
	Start     time.Duration
	End       time.Duration
	// attrs and nattrs are the span's run of the tracer's attribute arena.
	attrs  *Attr
	nattrs int32
	// id is the creation-order identifier (1-based); parent, first, last
	// and next are identifiers of the parent, the first and last child and
	// the next sibling, 0 for none.
	id, parent, first, last, next int32
}

// DefaultSpanLimit bounds span memory for long runs: past it new spans are
// dropped (and counted), keeping fleet-scale experiments O(limit).
const DefaultSpanLimit = 200_000

// Slab and arena chunk sizes. Span k is slot k-1 of the slab sequence; a
// chunk holds the attributes of many spans, and a run that does not fit in
// the current chunk's free tail starts a new one.
const (
	slabSize  = 256
	attrChunk = 1024
)

// Tracer collects spans stamped in virtual time.
type Tracer struct {
	mu                  sync.Mutex
	slabs               []*[slabSize]Span
	arena               []Attr // current attribute chunk, appended up to its capacity
	firstRoot, lastRoot int32
	stack               []*Span
	nextID              int
	limit               int
	dropped             int
}

// New returns an empty tracer. It reads no clock: every span is stamped by
// its caller (StartSpanAt, SpanAt, FinishAt).
func New() *Tracer { return &Tracer{limit: DefaultSpanLimit} }

// SetSpanLimit changes the span cap. Non-positive restores the default;
// the cap is at most math.MaxInt32, the largest span identifier.
func (t *Tracer) SetSpanLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = DefaultSpanLimit
	}
	t.limit = min(n, math.MaxInt32)
}

// StartSpanAt opens a span at an explicit virtual time (schedulers and
// estimators time-stamp spans from computed timelines, not a live clock)
// and makes it the parent of spans started before it finishes.
func (t *Tracer) StartSpanAt(component, name string, start time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.record(component, name, start, start, attrs, true)
}

// SpanAt records an already-bounded leaf span (start..end) under the
// currently open span without becoming a parent itself.
func (t *Tracer) SpanAt(component, name string, start, end time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.record(component, name, start, end, attrs, false)
}

// record records a span under the cap as the last child of the current
// stack top (a root when the stack is empty) and, when open, pushes it.
// The nil checks stay in the exported fronts, which the compiler inlines,
// so a call on a nil tracer never makes a call.
func (t *Tracer) record(component, name string, start, end time.Duration, attrs []Attr, open bool) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nextID >= t.limit {
		t.dropped++
		return nil
	}
	var parent *Span
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := t.addLocked(parent)
	s.Name, s.Component, s.Start, s.End = name, component, start, end
	t.keepLocked(s, nil, attrs)
	if open {
		t.stack = append(t.stack, s)
	}
	return s
}

// addLocked takes the next slab slot for a new span, numbers it, and links
// it as parent's last child, or as the last root when parent is nil.
// Callers hold t.mu and have checked the cap.
func (t *Tracer) addLocked(parent *Span) *Span {
	slot := t.nextID % slabSize
	if slot == 0 {
		t.slabs = append(t.slabs, new([slabSize]Span))
	}
	t.nextID++
	s := &t.slabs[len(t.slabs)-1][slot]
	s.tracer, s.id = t, int32(t.nextID)
	first, last := &t.firstRoot, &t.lastRoot
	if parent != nil {
		s.parent = parent.id
		first, last = &parent.first, &parent.last
	}
	if *last == 0 {
		*first = s.id
	} else {
		t.span(*last).next = s.id
	}
	*last = s.id
	return s
}

// keepLocked copies head then tail into the attribute arena and makes the
// copy s's attributes. Callers hold t.mu.
func (t *Tracer) keepLocked(s *Span, head, tail []Attr) {
	n := len(head) + len(tail)
	if n == 0 {
		return
	}
	if cap(t.arena)-len(t.arena) < n {
		t.arena = make([]Attr, 0, max(attrChunk, n))
	}
	at := len(t.arena)
	t.arena = append(append(t.arena, head...), tail...)
	s.attrs, s.nattrs = &t.arena[at], int32(n)
}

// span returns the span with identifier id, nil for 0.
func (t *Tracer) span(id int32) *Span {
	if id == 0 {
		return nil
	}
	i := int(id - 1)
	return &t.slabs[i/slabSize][i%slabSize]
}

// FinishAt closes the span at an explicit virtual time and pops it from the
// open-span stack (out-of-order finishes unwind through it).
func (s *Span) FinishAt(end time.Duration) {
	if s != nil {
		s.finish(end)
	}
}

func (s *Span) finish(end time.Duration) {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			s.End = max(end, s.Start)
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			return
		}
	}
}

// SetAttr appends attributes to an open or finished span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s != nil && len(attrs) > 0 {
		s.setAttr(attrs)
	}
}

func (s *Span) setAttr(attrs []Attr) {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.tracer.keepLocked(s, s.Attrs(), attrs)
}

// Attrs returns the span's attributes in the order they were set. The
// slice is the tracer's: read it, do not write it.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return unsafe.Slice(s.attrs, s.nattrs)
}

// ID returns the span's creation-order identifier (1-based).
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return int(s.id)
}

// Parent returns the span's parent, nil for a root.
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.tracer.span(s.parent)
}

// FirstChild returns the span's first child in creation order, nil for a
// leaf.
func (s *Span) FirstChild() *Span {
	if s == nil {
		return nil
	}
	return s.tracer.span(s.first)
}

// NextSibling returns the span created after this one under the same
// parent (or the next root), nil for the last.
func (s *Span) NextSibling() *Span {
	if s == nil {
		return nil
	}
	return s.tracer.span(s.next)
}

// walkLocked visits every span depth first — a parent before its children,
// siblings and roots in creation order — with its depth (0 for a root).
// It is the one traversal both exporters, Merge and Components read the
// tree through. Callers hold t.mu.
func (t *Tracer) walkLocked(visit func(s *Span, depth int)) {
	s, depth := t.span(t.firstRoot), 0
	for s != nil {
		visit(s, depth)
		if c := s.FirstChild(); c != nil {
			s, depth = c, depth+1
			continue
		}
		for s != nil && s.NextSibling() == nil {
			s, depth = s.Parent(), depth-1
		}
		s = s.NextSibling()
	}
}

// Roots returns the top-level spans in creation order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	for s := t.span(t.firstRoot); s != nil; s = s.NextSibling() {
		out = append(out, s)
	}
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
// them. Spans past t's span cap are dropped and counted (once the cap is
// reached every later span in the walk is, so no copied span loses its
// parent), and src's own dropped count carries over. src is never mutated,
// but it must be quiescent (no spans being opened or finished) while Merge
// reads it — replication harnesses merge only after their workers have
// exited. Merging a tracer into itself, or merging nil, is a no-op.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	var parents []*Span // the copies of the current span's ancestors, by depth
	src.walkLocked(func(s *Span, depth int) {
		if t.nextID >= t.limit {
			t.dropped++
			return
		}
		parents = parents[:depth]
		var parent *Span
		if depth > 0 {
			parent = parents[depth-1]
		}
		cp := t.addLocked(parent)
		cp.Name, cp.Component, cp.Start, cp.End = s.Name, s.Component, s.Start, s.End
		t.keepLocked(cp, nil, s.Attrs())
		parents = append(parents, cp)
	})
	t.dropped += src.dropped
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
	t.walkLocked(func(s *Span, _ int) { seen[s.Component] = true })
	return sortedKeys(seen)
}
