package obs

import (
	"sort"
	"time"

	"repro/internal/telemetry"
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
