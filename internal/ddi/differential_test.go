package ddi

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// buildCorpus fills s with n randomized records (seeded via sim.NewStream
// so runs are reproducible) and returns the shadow copy the reference
// scan works from.
func buildCorpus(t *testing.T, s *DiskStore, n int, seed int64) []Record {
	t.Helper()
	rng := sim.NewStream(seed, 3)
	sources := []Source{SourceOBD, SourceGPS, SourceTraffic, SourceUser, SourceWeather}
	shadow := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		payload := make([]byte, 8+rng.Intn(40))
		for j := range payload {
			payload[j] = byte('a' + rng.Intn(26))
		}
		r := Record{
			Source:  sources[rng.Intn(len(sources))],
			At:      time.Duration(rng.Intn(3600)) * time.Second,
			X:       rng.Uniform(-1000, 1000),
			Y:       rng.Uniform(-1000, 1000),
			Payload: payload,
		}
		id, err := s.Put(r)
		if err != nil {
			t.Fatal(err)
		}
		r.ID = id
		shadow = append(shadow, r)
	}
	return shadow
}

// differentialQueries is the query-shape matrix both engines must agree
// on: every window form (open, closed, empty, inverted, instant, out of
// range), source and spatial filters alone and combined, and limits.
func differentialQueries() []Query {
	return []Query{
		{}, // everything
		{From: 10 * time.Minute, To: 11 * time.Minute},   // narrow window
		{From: 5 * time.Minute, To: 50 * time.Minute},    // wide window
		{From: 30 * time.Minute},                         // open above
		{To: 30 * time.Minute},                           // bounded above only
		{From: 600 * time.Second, To: 600 * time.Second}, // single instant
		{From: 20 * time.Minute, To: 10 * time.Minute},   // inverted: empty
		{From: 2 * time.Hour},                            // past the data
		{Source: SourceGPS},                              // source only
		{Source: SourceUser, From: 10 * time.Minute, To: 40 * time.Minute},
		{Source: SourceSocial},    // source never stored
		{X: 0, Y: 0, Radius: 300}, // spatial only
		{X: 250, Y: -250, Radius: 150, Source: SourceOBD, From: 5 * time.Minute, To: 45 * time.Minute},
		{Limit: 37}, // limit only
		{From: 10 * time.Minute, To: 30 * time.Minute, Limit: 11}, // window + limit
	}
}

// refAggregate is the naive aggregate the zone-map fast path must match.
func refAggregate(shadow []Record, q Query, col Column) Agg {
	var a Agg
	for i := range shadow {
		if !q.Matches(&shadow[i]) {
			continue
		}
		var v float64
		switch col {
		case ColAt:
			v = float64(shadow[i].At)
		case ColX:
			v = shadow[i].X
		case ColY:
			v = shadow[i].Y
		default:
			v = float64(len(shadow[i].Payload))
		}
		if a.Count == 0 || v < a.Min {
			a.Min = v
		}
		if a.Count == 0 || v > a.Max {
			a.Max = v
		}
		a.Sum += v
		a.Count++
	}
	if a.Count > 0 {
		a.Mean = a.Sum / float64(a.Count)
	}
	return a
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if aa := a; aa < 0 {
		aa = -aa
		if aa > scale {
			scale = aa
		}
	} else if a > scale {
		scale = a
	}
	return d <= 1e-9*scale
}

// TestDifferentialQueryShapes pins the segment engine byte-identical to
// the naive reference scan across the full query-shape matrix and two
// randomized corpora, through seals, a compaction, and a reopen.
func TestDifferentialQueryShapes(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	for _, seed := range []int64{101, 202} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Small seals over 5-minute partitions: the corpus spans an
			// hour, so every seal fans out across many partitions and
			// partitions accumulate several segments for Compact to merge.
			s.SetSealPolicy(8192, 5*time.Minute)
			shadow := buildCorpus(t, s, n, seed)

			check := func(stage string) {
				t.Helper()
				for qi, q := range differentialQueries() {
					got := s.Select(q)
					want := fullScanSelect(shadow, q)
					if len(got) != len(want) {
						t.Fatalf("%s query %d: %d results, reference found %d", stage, qi, len(got), len(want))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("%s query %d result %d:\n  got  %+v\n  want %+v", stage, qi, i, got[i], want[i])
						}
					}
					if q.Limit != 0 {
						continue // aggregates ignore Limit by contract
					}
					for _, col := range []Column{ColAt, ColX, ColY, ColPayloadBytes} {
						ga, _, err := s.Aggregate(q, col)
						if err != nil {
							t.Fatal(err)
						}
						wa := refAggregate(shadow, q, col)
						if ga.Count != wa.Count || ga.Min != wa.Min || ga.Max != wa.Max ||
							!closeEnough(ga.Sum, wa.Sum) || !closeEnough(ga.Mean, wa.Mean) {
							t.Fatalf("%s query %d agg %v:\n  got  %+v\n  want %+v", stage, qi, col, ga, wa)
						}
					}
				}
			}

			check("mixed memtable+segments")
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			check("after compaction")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			check("after reopen")
		})
	}
}

// TestDifferentialDeleteBefore pins DeleteBefore against the reference:
// whole-partition drops, a straddling-segment rewrite, and the memtable
// filter all leave exactly the surviving records.
func TestDifferentialDeleteBefore(t *testing.T) {
	s := openStore(t)
	s.SetSealPolicy(1024, 5*time.Minute)
	shadow := buildCorpus(t, s, 10_000, 404)

	cut := 27 * time.Minute
	removed, err := s.DeleteBefore(cut)
	if err != nil {
		t.Fatal(err)
	}
	var keep []Record
	for _, r := range shadow {
		if r.At >= cut {
			keep = append(keep, r)
		}
	}
	if want := len(shadow) - len(keep); removed != want {
		t.Fatalf("removed %d, want %d", removed, want)
	}
	got := s.Select(Query{})
	want := fullScanSelect(keep, Query{})
	if len(got) != len(want) {
		t.Fatalf("%d survivors, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("survivor %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestDownloadAppendMatchesDownload runs the differential query matrix on
// two identically filled DDIs, one through Download and one through
// DownloadAppend behind a non-empty prefix: the prefix survives, the
// appended records equal Download's, and the latency, the cache promotions
// (LRU order and counters), the metrics and the spans match query by query.
func TestDownloadAppendMatchesDownload(t *testing.T) {
	type side struct {
		d   *DDI
		reg *telemetry.Registry
		tr  *trace.Tracer
	}
	newSide := func() side {
		s := side{d: newDDI(t), reg: telemetry.NewRegistry(), tr: trace.New()}
		s.d.Instrument(obs.Scope{Metrics: s.reg, Tracer: s.tr})
		buildCorpus(t, s.d.Store(), 3000, 17)
		if err := s.d.Store().Seal(); err != nil {
			t.Fatal(err)
		}
		buildCorpus(t, s.d.Store(), 500, 18) // a memtable beside the segments
		return s
	}
	a, b := newSide(), newSide()
	prefix := []Record{{ID: 1 << 40, Source: SourceUser, Payload: []byte("prefix")}}
	for i, q := range differentialQueries() {
		now := time.Duration(i) * time.Second
		want, wantLat, err := a.d.Download(now, q)
		if err != nil {
			t.Fatal(err)
		}
		dst := append(make([]Record, 0, 4), prefix...)
		got, gotLat, err := b.d.DownloadAppend(dst, now, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[:len(prefix)], prefix) {
			t.Fatalf("query %d %+v: prefix became %+v", i, q, got[:len(prefix)])
		}
		if rest := got[len(prefix):]; !reflect.DeepEqual(rest, want) && (len(rest) != 0 || len(want) != 0) {
			t.Fatalf("query %d %+v: DownloadAppend returned %d records, Download %d", i, q, len(rest), len(want))
		}
		if gotLat != wantLat {
			t.Fatalf("query %d %+v: latency %v, Download %v", i, q, gotLat, wantLat)
		}
		ca, cb := a.d.Cache(), b.d.Cache()
		if !reflect.DeepEqual(ca.nodes, cb.nodes) || !reflect.DeepEqual(ca.index, cb.index) ||
			ca.head != cb.head || ca.tail != cb.tail || ca.free != cb.free || ca.hits != cb.hits || ca.misses != cb.misses {
			t.Fatalf("query %d %+v: the record caches diverged", i, q)
		}
	}
	if sa, sb := a.reg.Snapshot(), b.reg.Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("metrics diverged:\nDownload:       %+v\nDownloadAppend: %+v", sa, sb)
	}
	if ta, tb := a.tr.RenderTree(), b.tr.RenderTree(); ta != tb {
		t.Fatalf("spans diverged:\nDownload:\n%s\nDownloadAppend:\n%s", ta, tb)
	}
	ua, da, _ := a.d.Stats()
	ub, db, _ := b.d.Stats()
	if ua != ub || da != db {
		t.Fatalf("uploads/downloads %d/%d, DownloadAppend's %d/%d", ua, da, ub, db)
	}
}
