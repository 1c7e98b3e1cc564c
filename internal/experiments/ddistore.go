package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"repro/internal/ddi"
	"repro/internal/runner"
	"repro/internal/sim"
)

// E20 — the columnar DDI store worker-count determinism digest. It builds a
// large virtual-time-partitioned corpus once (single-threaded, so the store
// layout is a pure function of the seed), then fans a fixed set of query
// shapes over the read-only store through the parallel runner, compacts,
// and fans them again. Everything it reports is deterministic — counts,
// zone-map prune statistics, and record checksums — so `make determinism`
// can diff the digest across -parallel levels. What the store costs in wall
// clock is benchmark/'s to measure (ddi_ingest, ddi_query).

// DDIStoreConfig parameterizes E20.
type DDIStoreConfig struct {
	// Records is the corpus size (vdapbench default: 10M).
	Records int
	// Seed keys the corpus stream.
	Seed int64
	// Parallel is the query-sweep worker-pool size; the digest is
	// byte-identical at any level.
	Parallel int
	// Dir is the store scratch directory; it must be empty, so the digest
	// is a function of (Seed, Records) alone.
	Dir string
}

// DDIQueryCell is one query shape's deterministic measurement.
type DDIQueryCell struct {
	Name string
	// Count is the full matching-record count (zone-map fast path).
	Count int
	// Segments / Candidates / Pruned / SkipRatio come from the planner.
	Segments   int
	Candidates int
	Pruned     int
	SkipRatio  float64
	// Checksum is an FNV-1a digest over the first records the iterator
	// streams (ID, At, coordinates, payload) — pins byte-level results,
	// not just counts, across worker pools and engine changes.
	Checksum string
}

// DDIStoreResult is the E20 outcome: a pure function of (seed, records).
type DDIStoreResult struct {
	Records     int
	SpanVirtual time.Duration
	// Segment counts before and after compaction, plus how many segment
	// files compaction merged away.
	SegmentsBefore int
	SegmentsAfter  int
	MergedAway     int
	// Cells is the query digest, pre-compaction; CellsAfter re-runs the
	// same shapes post-compaction (counts and checksums must agree).
	Cells      []DDIQueryCell
	CellsAfter []DDIQueryCell
}

// ddiCorpusSpacing is the virtual-time gap between consecutive records:
// 1 ms of stream time per record spreads 10M records over ~2.8 h, i.e.
// ~33 five-minute partitions.
const ddiCorpusSpacing = time.Millisecond

var ddiCorpusSources = []ddi.Source{
	ddi.SourceOBD, ddi.SourceGPS, ddi.SourceWeather, ddi.SourceTraffic, ddi.SourceUser,
}

// ddiCorpusRecord derives record i of the corpus from the stream RNG.
// Payloads are small JSON-ish blobs so huffman block compression has
// realistic symbol skew. payload must be an empty slice with enough
// capacity for the longest blob (ddiPayloadCap); the record aliases it.
func ddiCorpusRecord(rng *sim.RNG, i int, payload []byte) ddi.Record {
	return ddi.Record{
		Source:  ddiCorpusSources[rng.Intn(len(ddiCorpusSources))],
		At:      time.Duration(i) * ddiCorpusSpacing,
		X:       rng.Uniform(-1000, 1000),
		Y:       rng.Uniform(-1000, 1000),
		Payload: fmt.Appendf(payload[:0], `{"v":%d,"s":%d}`, rng.Intn(10000), rng.Intn(100)),
	}
}

// ddiPayloadCap bounds one corpus payload: `{"v":9999,"s":99}` is 17
// bytes; 24 leaves slack.
const ddiPayloadCap = 24

// ddiQueryShapes builds the digest's query cells for a corpus spanning
// [0, span). Windows are fractions of the span so the shapes scale with
// -records.
func ddiQueryShapes(span time.Duration) []struct {
	Name  string
	Query ddi.Query
} {
	mid := span / 2
	return []struct {
		Name  string
		Query ddi.Query
	}{
		{"everything", ddi.Query{}},
		{"narrow-window", ddi.Query{From: mid, To: mid + span/100}},
		{"wide-window", ddi.Query{From: span / 4, To: 3 * span / 4}},
		{"open-tail", ddi.Query{From: span - span/20}},
		{"head-window", ddi.Query{To: span / 20}},
		{"obd-narrow", ddi.Query{Source: ddi.SourceOBD, From: mid, To: mid + span/50}},
		{"gps-everything", ddi.Query{Source: ddi.SourceGPS}},
		{"absent-source", ddi.Query{Source: ddi.SourceSocial}},
		{"spatial-circle", ddi.Query{X: 0, Y: 0, Radius: 200}},
		{"spatial-far", ddi.Query{X: 1e7, Y: 1e7, Radius: 1}},
		{"spatial-source-window", ddi.Query{Source: ddi.SourceWeather, From: span / 3, To: 2 * span / 3, X: 100, Y: -100, Radius: 500}},
		{"limited", ddi.Query{From: span / 10, Limit: 100}},
	}
}

// ddiQueryCell measures one shape: full count and prune statistics via
// the aggregate planner (zone-map fast path), plus a checksum over the
// first streamed records to pin exact results.
func ddiQueryCell(s *ddi.DiskStore, name string, q ddi.Query) (DDIQueryCell, error) {
	agg, stats, err := s.Aggregate(q, ddi.ColAt)
	if err != nil {
		return DDIQueryCell{}, err
	}
	h := fnv.New64a()
	var buf [8]byte
	qh := q
	if qh.Limit == 0 || qh.Limit > 256 {
		qh.Limit = 256
	}
	it := s.Scan(qh)
	for it.Next() {
		r := it.Record()
		put64 := func(v uint64) {
			for b := 0; b < 8; b++ {
				buf[b] = byte(v >> (8 * b))
			}
			h.Write(buf[:])
		}
		put64(r.ID)
		put64(uint64(r.At))
		put64(uint64(int64(r.X * 1e6)))
		put64(uint64(int64(r.Y * 1e6)))
		h.Write([]byte(r.Source))
		h.Write(r.Payload)
	}
	if err := it.Err(); err != nil {
		return DDIQueryCell{}, err
	}
	return DDIQueryCell{
		Name:       name,
		Count:      agg.Count,
		Segments:   stats.Segments,
		Candidates: stats.Candidates,
		Pruned:     stats.Pruned,
		SkipRatio:  stats.SkipRatio(),
		Checksum:   fmt.Sprintf("%016x", h.Sum64()),
	}, nil
}

// ddiQuerySweep runs every shape through the parallel runner. Each cell
// is an independent read-only job, and the merge is index-ordered, so the
// digest is byte-identical at any -parallel level.
func ddiQuerySweep(s *ddi.DiskStore, span time.Duration, seed int64, parallel int) ([]DDIQueryCell, error) {
	shapes := ddiQueryShapes(span)
	rep, err := runner.Run(runner.Config{
		Replications: len(shapes),
		Parallel:     parallel,
		Seed:         seed,
	}, func(sh *runner.Shard) (DDIQueryCell, error) {
		return ddiQueryCell(s, shapes[sh.Index].Name, shapes[sh.Index].Query)
	})
	if err != nil {
		return nil, err
	}
	return rep.Results, nil
}

// RunDDIStore executes E20: ingest, query sweep, compaction, re-sweep.
func RunDDIStore(cfg DDIStoreConfig) (*DDIStoreResult, error) {
	if cfg.Records < 1 {
		return nil, fmt.Errorf("ddistore: need at least one record, got %d", cfg.Records)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ddistore: need a scratch directory")
	}
	// OpenDiskStore would replay whatever store is already there, and the
	// digest would cover its records too. A missing or unreadable
	// directory is OpenDiskStore's to create or report.
	if entries, _ := os.ReadDir(cfg.Dir); len(entries) > 0 {
		return nil, fmt.Errorf("ddistore: scratch directory %s is not empty", cfg.Dir)
	}
	s, err := ddi.OpenDiskStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	res := &DDIStoreResult{
		Records:     cfg.Records,
		SpanVirtual: time.Duration(cfg.Records) * ddiCorpusSpacing,
	}

	// Phase 1 — ingest through the memtable + seal path. Single-threaded,
	// so the segment layout is a pure function of the seed.
	rng := sim.NewStream(cfg.Seed, 20)
	payload := make([]byte, 0, ddiPayloadCap)
	for i := 0; i < cfg.Records; i++ {
		if _, err := s.Put(ddiCorpusRecord(rng, i, payload)); err != nil {
			return nil, err
		}
	}
	if err := s.Seal(); err != nil {
		return nil, err
	}
	res.SegmentsBefore = len(s.Segments())

	// Phase 2 — deterministic query sweep over the sealed store.
	if res.Cells, err = ddiQuerySweep(s, res.SpanVirtual, cfg.Seed, cfg.Parallel); err != nil {
		return nil, err
	}

	// Phase 3 — compaction, then the same digest again: merging segments
	// must not change any count or checksum.
	if res.MergedAway, err = s.Compact(); err != nil {
		return nil, err
	}
	res.SegmentsAfter = len(s.Segments())
	if res.CellsAfter, err = ddiQuerySweep(s, res.SpanVirtual, cfg.Seed, cfg.Parallel); err != nil {
		return nil, err
	}
	for i := range res.Cells {
		if res.Cells[i].Count != res.CellsAfter[i].Count || res.Cells[i].Checksum != res.CellsAfter[i].Checksum {
			return nil, fmt.Errorf("ddistore: compaction changed %q: count %d->%d checksum %s->%s",
				res.Cells[i].Name, res.Cells[i].Count, res.CellsAfter[i].Count,
				res.Cells[i].Checksum, res.CellsAfter[i].Checksum)
		}
	}
	return res, nil
}

// DDIStoreTable renders the E20 digest: corpus shape, zone maps, and the
// per-query sweep. Everything here is a pure function of (seed, records) —
// `make determinism` diffs it across -parallel levels.
func DDIStoreTable(res *DDIStoreResult) string {
	t := &Table{
		Title: fmt.Sprintf("E20: columnar DDI store, %d records over %v (%d -> %d segments, %d merged away)",
			res.Records, res.SpanVirtual, res.SegmentsBefore, res.SegmentsAfter, res.MergedAway),
		Columns: []string{"query", "count", "segments", "pruned", "skip", "skip (compacted)", "checksum"},
	}
	for i, c := range res.Cells {
		t.Rows = append(t.Rows, []string{
			c.Name,
			fmt.Sprintf("%d", c.Count),
			fmt.Sprintf("%d", c.Segments),
			fmt.Sprintf("%d", c.Pruned),
			f3(c.SkipRatio),
			f3(res.CellsAfter[i].SkipRatio),
			c.Checksum,
		})
	}
	return t.String()
}
