// Package obs is the platform's virtual-time observability layer: a
// flight recorder of structured events (Recorder), metric time-series
// with a kernel-scheduled sampler (SeriesStore, Sampler), and Scope, the
// one value that carries those two plus the telemetry registry and the
// tracer to a component.
//
// Everything here is stamped from the simulation clock and ordered by
// (virtual time, emission sequence), so two runs with the same seed export
// byte-identical event logs and series — including sharded or replicated
// runs, provided lanes are merged in a canonical order (the same contract
// telemetry.Registry.Merge and trace.Tracer.Merge follow).
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Severity classifies flight-recorder events.
type Severity int

const (
	SevDebug Severity = iota
	SevInfo
	SevWarn
	SevError
)

var sevNames = [...]string{"debug", "info", "warn", "error"}

// String renders the severity's lowercase name.
func (s Severity) String() string {
	if s < SevDebug || s > SevError {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return sevNames[s]
}

// ParseSeverity maps a name ("debug", "info", "warn", "error") back to its
// Severity.
func ParseSeverity(name string) (Severity, error) {
	for i, n := range sevNames {
		if n == name {
			return Severity(i), nil
		}
	}
	return SevDebug, fmt.Errorf("obs: unknown severity %q", name)
}

// MarshalJSON renders the severity as its name string.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts a severity name string.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// Event is one flight-recorder entry: a named state transition stamped at a
// virtual time. Its fields are the span attribute type, kept raw and
// rendered when the event is exported.
type Event struct {
	At        time.Duration `json:"atNs"`
	Component string        `json:"component"`
	Severity  Severity      `json:"severity"`
	Name      string        `json:"name"`
	Fields    []trace.Attr  `json:"fields,omitempty"`

	seq uint64 // emission order; breaks same-timestamp ties deterministically
}

// DefaultEventCapacity bounds a Recorder when the caller passes no capacity.
const DefaultEventCapacity = 4096

// Recorder is a bounded ring of structured events. When full, the oldest
// event is overwritten and counted as dropped. All methods are nil-safe, so
// components carry an optional recorder without guarding each call site.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	seq     uint64
	dropped int

	// fields is the append-only slab that events' Fields are copied into.
	// A full slab is replaced, never rewritten, so an event's fields stay
	// as recorded for as long as anything holds the event.
	fields []trace.Attr
}

// fieldSlab is how many attributes one slab of a recorder's event fields
// holds: twenty-one three-attribute events, small because a fleet keeps a
// recorder per vehicle lane. 63 attributes plus the allocation header the
// runtime puts on a pointerful object over 512 bytes fill the 2 KiB size
// class; 64 would take the 2 304-byte one.
const fieldSlab = 63

// NewRecorder returns a recorder retaining at most capacity events
// (DefaultEventCapacity when non-positive).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Emit appends an event at virtual time at. The recorder keeps a copy of
// fields, in its field slab, so a caller's variadic attributes stay on its
// stack, and a nil recorder copies nothing.
func (r *Recorder) Emit(at time.Duration, component string, sev Severity, name string, fields ...trace.Attr) {
	if r != nil {
		r.emit(at, component, sev, name, fields)
	}
}

func (r *Recorder) emit(at time.Duration, component string, sev Severity, name string, fields []trace.Attr) {
	r.mu.Lock()
	r.pushLocked(Event{At: at, Component: component, Severity: sev, Name: name,
		Fields: r.keepLocked(fields)})
	r.mu.Unlock()
}

// keepLocked copies fields into the field slab, starting a new slab when
// they do not fit, and returns the copy capped at its length, so an append
// to one event's fields never reaches the next one's. Callers hold r.mu.
func (r *Recorder) keepLocked(fields []trace.Attr) []trace.Attr {
	if len(fields) == 0 {
		return nil
	}
	if len(r.fields)+len(fields) > cap(r.fields) {
		r.fields = make([]trace.Attr, 0, max(fieldSlab, len(fields)))
	}
	from := len(r.fields)
	r.fields = append(r.fields, fields...)
	return r.fields[from:len(r.fields):len(r.fields)]
}

// pushLocked appends ev, sequenced after every event already recorded,
// overwriting the oldest when the ring is full. The recorder keeps
// ev.Fields as they are. Callers hold r.mu.
func (r *Recorder) pushLocked(ev Event) {
	r.seq++
	ev.seq = r.seq
	if r.n == len(r.buf) {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
	}
}

// Len returns how many events are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events the ring discarded (its own overwrites
// plus dropped counts carried over by Merge).
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events ordered by (virtual time, emission
// sequence). The slice is a copy, but each event's Fields are the
// recorder's own: read them, do not write them.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// EventsSince filters the ordered events: only those strictly after since
// (pass a negative since for all), matching component (empty matches all),
// at or above minSev.
func (r *Recorder) EventsSince(since time.Duration, component string, minSev Severity) []Event {
	all := r.Events()
	out := make([]Event, 0, len(all))
	for _, ev := range all {
		if ev.At <= since && since >= 0 {
			continue
		}
		if component != "" && ev.Component != component {
			continue
		}
		if ev.Severity < minSev {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// Merge appends src's retained events (in src's own order) into r,
// re-sequencing them after r's existing events, and carries src's dropped
// count over. Merging lanes in a canonical order therefore deterministically
// breaks same-timestamp ties no matter how many workers recorded them. src
// is only read; merging a recorder into itself or merging nil is a no-op.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil || r == src {
		return
	}
	src.mu.Lock()
	events := make([]Event, 0, src.n)
	for i := 0; i < src.n; i++ {
		events = append(events, src.buf[(src.start+i)%len(src.buf)])
	}
	dropped := src.dropped
	src.mu.Unlock()
	r.mu.Lock()
	for _, ev := range events {
		r.pushLocked(ev) // src never writes its events' fields, so r may share them
	}
	r.dropped += dropped
	r.mu.Unlock()
}

// RenderTable renders the ordered events as a fixed-width text table, one
// event per line, deterministic for a deterministic event log.
func (r *Recorder) RenderTable() string {
	events := r.Events()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %-6s %-28s %s\n", "TIME", "COMPONENT", "SEV", "EVENT", "FIELDS")
	for _, ev := range events {
		fields := make([]string, 0, len(ev.Fields))
		for _, f := range ev.Fields {
			fields = append(fields, f.Key+"="+f.Value())
		}
		fmt.Fprintf(&b, "%-12s %-10s %-6s %-28s %s\n",
			fmtDuration(ev.At), ev.Component, ev.Severity.String(), ev.Name, strings.Join(fields, " "))
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d events dropped by the ring)\n", d)
	}
	return b.String()
}

// fmtDuration renders a virtual time with millisecond precision, stable
// across magnitudes (12.250s, not 12.25s / 12s250ms).
func fmtDuration(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64) + "s"
}
