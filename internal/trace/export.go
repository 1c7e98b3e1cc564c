package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// RenderTree renders the trace as an indented tree, one span per line:
//
//	[component] name start..end (+dur) key=value ...
//
// Output is deterministic: roots and children appear in creation order and
// every timestamp is virtual time.
func (t *Tracer) RenderTree() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	t.walkLocked(func(s *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "[%s] %s %v..%v (+%v)", s.Component, s.Name, s.Start, s.End, s.End-s.Start)
		for _, a := range s.Attrs() {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value())
		}
		b.WriteByte('\n')
	})
	if t.dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped at cap)\n", t.dropped)
	}
	return b.String()
}

// attrJSON is an attribute's JSON form: its key and its rendered value.
type attrJSON struct {
	K string `json:"k"`
	V string `json:"v"`
}

// MarshalJSON renders the attribute as {"k":Key,"v":Value()}, the bytes
// json.Marshal writes for an attrJSON.
func (a Attr) MarshalJSON() ([]byte, error) {
	v := a.Value()
	b := make([]byte, 0, len(a.Key)+len(v)+len(`{"k":"","v":""}`))
	b = appendJSONString(append(b, `{"k":`...), a.Key)
	b = appendJSONString(append(b, `,"v":`...), v)
	return append(b, '}'), nil
}

// appendJSONString appends s as encoding/json quotes it: verbatim when
// every byte is printable ASCII that json escapes in no way, else through
// json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// UnmarshalJSON reads MarshalJSON's form back as a string attribute: the
// JSON keeps the rendered value, not its kind, so Value round-trips.
func (a *Attr) UnmarshalJSON(b []byte) error {
	var j attrJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*a = String(j.K, j.V)
	return nil
}

// chromeEvent is one Chrome trace_event entry. "X" events are complete
// spans with ts/dur in microseconds; "M" events are metadata naming the
// per-component lanes.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object flavor of the format, which tolerates
// trailing metadata and displays a title in Perfetto.
type chromeTraceFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Meta        struct {
		Tool    string `json:"tool"`
		Dropped int    `json:"droppedSpans"`
	} `json:"otherData"`
}

// ChromeTrace exports the trace as Chrome trace_event JSON. Each component
// gets its own thread lane (sorted by name, so lane assignment is stable),
// timestamps are virtual-time microseconds, and span identifiers ride in
// args. Two same-seed runs export byte-identical output.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("trace: nil tracer")
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	lanes := map[string]int{}
	t.walkLocked(func(s *Span, _ int) { lanes[s.Component] = 0 })
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

	t.walkLocked(func(s *Span, _ int) {
		dur := micros(s.End - s.Start)
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Component,
			Ph:   "X",
			TS:   micros(s.Start),
			Dur:  &dur,
			PID:  1,
			TID:  lanes[s.Component],
			Args: map[string]string{"span": strconv.Itoa(s.ID())},
		}
		if p := s.Parent(); p != nil {
			ev.Args["parent"] = strconv.Itoa(p.ID())
		}
		for _, a := range s.Attrs() {
			ev.Args[a.Key] = a.Value()
		}
		file.TraceEvents = append(file.TraceEvents, ev)
	})
	return json.MarshalIndent(file, "", " ")
}

// micros converts a virtual duration to trace_event microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
