package trace

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the reference for the slab tracer: the pointer-tree tracer
// the package shipped before spans moved into slabs, kept as it was apart
// from its names. Every span is its own heap object with a Children slice,
// attributes are rendered to strings when they are built, and the
// exporters recurse over the tree. FuzzTracerMatchesReference drives both
// with the same calls and requires the same renders, exports, counts and
// identifiers.

// naiveAttr is one key-value annotation on a span. Values are pre-rendered to
// strings so export is allocation-light and deterministic.
type naiveAttr struct {
	Key   string
	Value string
}

// naiveString builds a string attribute.
func naiveString(key, value string) naiveAttr { return naiveAttr{Key: key, Value: value} }

// naiveInt builds an integer attribute.
func naiveInt(key string, v int) naiveAttr { return naiveAttr{Key: key, Value: strconv.Itoa(v)} }

// naiveF64 builds a float attribute with stable two-decimal rendering.
func naiveF64(key string, v float64) naiveAttr {
	return naiveAttr{Key: key, Value: strconv.FormatFloat(v, 'f', 2, 64)}
}

// naiveDur builds a duration attribute.
func naiveDur(key string, d time.Duration) naiveAttr { return naiveAttr{Key: key, Value: d.String()} }

// naiveBool builds a boolean attribute.
func naiveBool(key string, v bool) naiveAttr {
	return naiveAttr{Key: key, Value: strconv.FormatBool(v)}
}

// naiveSpan is one timed operation in the trace tree. Start and End are virtual
// times. Fields are read by exporters under the tracer's lock; mutate only
// through naiveSpan methods.
type naiveSpan struct {
	tracer    *naiveTracer
	id        int
	Name      string
	Component string
	Start     time.Duration
	End       time.Duration
	Attrs     []naiveAttr
	Parent    *naiveSpan
	Children  []*naiveSpan
	finished  bool
}

// naiveTracer collects spans stamped in virtual time.
type naiveTracer struct {
	mu      sync.Mutex
	roots   []*naiveSpan
	stack   []*naiveSpan
	nextID  int
	limit   int
	dropped int
}

// newNaive returns an empty tracer. It reads no clock: every span is stamped by
// its caller (StartSpanAt, SpanAt, FinishAt).
func newNaive() *naiveTracer { return &naiveTracer{limit: DefaultSpanLimit} }

// SetSpanLimit changes the span cap. Non-positive restores the default.
func (t *naiveTracer) SetSpanLimit(n int) {
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
func (t *naiveTracer) StartSpanAt(component, name string, start time.Duration, attrs ...naiveAttr) *naiveSpan {
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
func (t *naiveTracer) SpanAt(component, name string, start, end time.Duration, attrs ...naiveAttr) *naiveSpan {
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
func (t *naiveTracer) newSpanLocked(component, name string, start time.Duration, attrs []naiveAttr) *naiveSpan {
	if t.nextID >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &naiveSpan{
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
func (s *naiveSpan) FinishAt(end time.Duration) {
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
func (s *naiveSpan) SetAttr(attrs ...naiveAttr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.Attrs = append(s.Attrs, attrs...)
}

// ID returns the span's creation-order identifier (1-based).
func (s *naiveSpan) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// Roots returns the top-level spans in creation order.
func (t *naiveTracer) Roots() []*naiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*naiveSpan, len(t.roots))
	copy(out, t.roots)
	return out
}

// SpanCount returns how many spans were recorded (dropped ones excluded).
func (t *naiveTracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// Dropped returns how many spans the cap discarded.
func (t *naiveTracer) Dropped() int {
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
func (t *naiveTracer) Merge(src *naiveTracer) {
	if t == nil || src == nil || t == src {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	var clone func(s *naiveSpan, parent *naiveSpan)
	clone = func(s *naiveSpan, parent *naiveSpan) {
		if t.nextID >= t.limit {
			t.dropped += naiveSubtreeSize(s)
			return
		}
		t.nextID++
		cp := &naiveSpan{
			tracer:    t,
			id:        t.nextID,
			Name:      s.Name,
			Component: s.Component,
			Start:     s.Start,
			End:       s.End,
			Attrs:     append([]naiveAttr(nil), s.Attrs...),
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

// naiveSubtreeSize counts a span and all its descendants.
func naiveSubtreeSize(s *naiveSpan) int {
	n := 1
	for _, c := range s.Children {
		n += naiveSubtreeSize(c)
	}
	return n
}

// Components returns the sorted set of component names present in the
// trace.
func (t *naiveTracer) Components() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	var walk func(s *naiveSpan)
	walk = func(s *naiveSpan) {
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

// RenderTree renders the trace as an indented tree, one span per line:
//
//	[component] name start..end (+dur) key=value ...
//
// Output is deterministic: roots and children appear in creation order and
// every timestamp is virtual time.
func (t *naiveTracer) RenderTree() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	var walk func(s *naiveSpan, depth int)
	walk = func(s *naiveSpan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "[%s] %s %v..%v (+%v)", s.Component, s.Name, s.Start, s.End, s.End-s.Start)
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.roots {
		walk(r, 0)
	}
	if t.dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped at cap)\n", t.dropped)
	}
	return b.String()
}

// ChromeTrace exports the trace as Chrome trace_event JSON. Each component
// gets its own thread lane (sorted by name, so lane assignment is stable),
// timestamps are virtual-time microseconds, and span identifiers ride in
// args. Two same-seed runs export byte-identical output.
func (t *naiveTracer) ChromeTrace() ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("trace: nil tracer")
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	lanes := map[string]int{}
	var collect func(s *naiveSpan)
	collect = func(s *naiveSpan) {
		lanes[s.Component] = 0
		for _, c := range s.Children {
			collect(c)
		}
	}
	for _, r := range t.roots {
		collect(r)
	}
	for i, name := range sortedKeys(lanes) {
		lanes[name] = i + 1
	}

	var file chromeTraceFile
	file.Meta.Tool = "openvdap-trace"
	file.Meta.Dropped = t.dropped
	file.TraceEvents = append(file.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": "openvdap"},
	})
	for _, name := range sortedKeys(lanes) {
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lanes[name],
			Args: map[string]string{"name": name},
		})
	}

	var emit func(s *naiveSpan)
	emit = func(s *naiveSpan) {
		dur := micros(s.End - s.Start)
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Component,
			Ph:   "X",
			TS:   micros(s.Start),
			Dur:  &dur,
			PID:  1,
			TID:  lanes[s.Component],
			Args: map[string]string{"span": fmt.Sprintf("%d", s.id)},
		}
		if s.Parent != nil {
			ev.Args["parent"] = fmt.Sprintf("%d", s.Parent.id)
		}
		for _, a := range s.Attrs {
			ev.Args[a.Key] = a.Value
		}
		file.TraceEvents = append(file.TraceEvents, ev)
		for _, c := range s.Children {
			emit(c)
		}
	}
	for _, r := range t.roots {
		emit(r)
	}
	return json.MarshalIndent(file, "", " ")
}
