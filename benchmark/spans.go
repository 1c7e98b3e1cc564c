package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never inside the program under test).
type span struct {
	Name   string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Parent int32 // index into the lane's spans, -1 for a root
	Op     int64 // identifier shared by the spans of one op (round, request, batch)
}

// lane holds the spans one goroutine records. A lane is single-goroutine:
// begin/end keep a stack, so a span's parent is whatever was open when it
// began. A nil lane records nothing, which is how untraced runs pay nothing
// but a nil check.
type lane struct {
	id     int
	origin time.Time
	spans  []span
	stack  []int32
}

// recorder owns the lanes of one traced run.
type recorder struct {
	origin time.Time
	lanes  []*lane
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// lane adds a lane; call it before the goroutine that uses it starts. A nil
// recorder hands out nil lanes.
func (r *recorder) lane() *lane {
	if r == nil {
		return nil
	}
	l := &lane{id: len(r.lanes), origin: r.origin}
	r.lanes = append(r.lanes, l)
	return l
}

func (l *lane) begin(name string, op int64) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.origin), Parent: parent, Op: op})
	l.stack = append(l.stack, id)
	return id
}

func (l *lane) end(id int32) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.origin)
	l.stack = l.stack[:len(l.stack)-1]
}

// add records an already-measured span (used where the start is a schedule's
// due time rather than the moment of the call).
func (l *lane) add(name string, start, end time.Time, op int64) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: start.Sub(l.origin), End: end.Sub(l.origin), Parent: parent, Op: op})
}

// layerTime is one span name's totals over a run.
type layerTime struct {
	Count int
	Busy  time.Duration // sum of span durations
	Self  time.Duration // Busy minus what child spans cover
}

// selfTimes computes, per span name, the busy and self time over spans. A
// span's self time is its duration minus the part of its interval that its
// children cover; children may overlap one another and may stick out of the
// parent, so the covered part is the union of the children's intervals
// clipped to the parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	out := make(map[string]layerTime)
	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Busy += dur
		lt.Self += dur - covered
		out[s.Name] = lt
	}
	return out
}

// layers merges the per-lane self times of a run.
func (r *recorder) layers() map[string]layerTime {
	out := make(map[string]layerTime)
	if r == nil {
		return out
	}
	for _, l := range r.lanes {
		for name, lt := range selfTimes(l.spans) {
			acc := out[name]
			acc.Count += lt.Count
			acc.Busy += lt.Busy
			acc.Self += lt.Self
			out[name] = acc
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the run's spans as Chrome trace_event JSON (open in
// chrome://tracing or Perfetto) and returns the number of events written.
func (r *recorder) writeChrome(path string) (int, error) {
	var events []chromeEvent
	for _, l := range r.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: 1, Tid: l.id,
				Ts:   inUS(s.Start),
				Dur:  inUS(s.End - s.Start),
				Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return 0, err
	}
	return len(events), f.Close()
}
