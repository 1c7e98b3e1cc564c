package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file keeps a sampler that rebuilds everything every tick: each lane
// is read through Registry.Snapshot (visible metrics only), its names
// sorted, counters before histograms, and activation tracked in a map, the
// way the Sampler worked before it kept handle lists. differential_test.go
// checks the real Sampler against it.

type naiveSampler struct {
	store    *SeriesStore
	lanes    []*telemetry.Registry
	active   []*Series
	isActive map[*Series]bool
}

func newNaiveSampler(store *SeriesStore) *naiveSampler {
	return &naiveSampler{store: store, isActive: make(map[*Series]bool)}
}

func (n *naiveSampler) Watch(reg *telemetry.Registry) { n.lanes = append(n.lanes, reg) }

func (n *naiveSampler) activateLocked(name string, kind SeriesKind) *Series {
	se := n.store.ensureLocked(name, kind)
	if !n.isActive[se] {
		n.isActive[se] = true
		n.active = append(n.active, se)
	}
	return se
}

func (n *naiveSampler) SampleAt(now time.Duration) {
	n.store.mu.Lock()
	defer n.store.mu.Unlock()
	for _, reg := range n.lanes {
		snap := reg.Snapshot()
		for _, name := range sortedKeys(snap.Counters) {
			n.activateLocked(name, KindCounter).stage += snap.Counters[name]
		}
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			se := n.activateLocked(name, KindHistogram)
			se.stage += float64(h.Count)
			se.stageAux += h.Sum
		}
	}
	for _, se := range n.active {
		se.append(int64(now), se.stage, se.stageAux)
		se.stage, se.stageAux = 0, 0
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// naiveRecorder is the flight recorder as a plain []Event, the way it kept
// events before its ring held slots: a full recorder drops its oldest
// event, a merge appends the source's events in the source's own order, and
// an export is a stable sort by virtual time, so recording order breaks
// ties. recorder_test.go checks the real Recorder against it.
type naiveRecorder struct {
	capacity int
	events   []Event
	dropped  int
}

func (n *naiveRecorder) push(ev Event) {
	if len(n.events) == n.capacity {
		n.events = slices.Delete(n.events, 0, 1)
		n.dropped++
	}
	n.events = append(n.events, ev)
}

func (n *naiveRecorder) emit(at time.Duration, kind *EventKind, fields []trace.Attr) {
	ev := Event{At: at, Component: kind.Component, Severity: kind.Severity, Name: kind.Name}
	if len(fields) > 0 {
		ev.Fields = slices.Clone(fields)
	}
	n.push(ev)
}

func (n *naiveRecorder) merge(src *naiveRecorder) {
	if n == src {
		return
	}
	for _, ev := range src.events {
		n.push(ev)
	}
	n.dropped += src.dropped
}

func (n *naiveRecorder) sorted() []Event {
	out := slices.Clone(n.events)
	if out == nil {
		out = []Event{}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

func (n *naiveRecorder) eventsSince(since time.Duration, component string, minSev Severity) []Event {
	out := []Event{}
	for _, ev := range n.sorted() {
		if (since < 0 || ev.At > since) && (component == "" || ev.Component == component) && ev.Severity >= minSev {
			out = append(out, ev)
		}
	}
	return out
}

func (n *naiveRecorder) renderTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %-6s %-28s %s\n", "TIME", "COMPONENT", "SEV", "EVENT", "FIELDS")
	for _, ev := range n.sorted() {
		var fields []string
		for _, f := range ev.Fields {
			fields = append(fields, f.Key+"="+f.Value())
		}
		fmt.Fprintf(&b, "%-12s %-10s %-6s %-28s %s\n", fmt.Sprintf("%.3fs", ev.At.Seconds()),
			ev.Component, ev.Severity, ev.Name, strings.Join(fields, " "))
	}
	if n.dropped > 0 {
		fmt.Fprintf(&b, "(%d events dropped by the ring)\n", n.dropped)
	}
	return b.String()
}
