package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ddi"
	"repro/internal/runner"
	"repro/internal/sim"
)

// E20 — the columnar DDI store ingest/query sweep. It builds a large
// virtual-time-partitioned corpus once (single-threaded, so the store
// layout is a pure function of the seed), then fans a fixed set of query
// shapes over the read-only store through the parallel runner. Everything
// printed on stdout is deterministic — counts, zone-map prune statistics,
// and record checksums — so `make determinism` can diff the digest across
// -parallel levels; wall-clock throughput goes to stderr only (the
// tracked DDI numbers are benchmark/'s ddi_ingest and ddi_query).

// DDIStoreConfig parameterizes E20.
type DDIStoreConfig struct {
	// Records is the corpus size (vdapbench default: 10M).
	Records int
	// Seed keys the corpus stream.
	Seed int64
	// Parallel is the query-sweep worker-pool size; the digest is
	// byte-identical at any level.
	Parallel int
	// Dir is the store scratch directory.
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

// DDIStoreResult is the full E20 outcome: the deterministic digest plus
// machine-dependent wall-clock throughput.
type DDIStoreResult struct {
	Records     int
	SpanVirtual time.Duration
	// Segment counts before and after compaction, plus how many segment
	// files compaction merged away.
	SegmentsBefore int
	SegmentsAfter  int
	MergedAway     int
	StoreBytes     int64
	// Cells is the query digest, pre-compaction; CellsAfter re-runs the
	// same shapes post-compaction (counts and checksums must agree).
	Cells      []DDIQueryCell
	CellsAfter []DDIQueryCell

	// Wall-clock measurements (stderr only).
	IngestNsPerRec   float64
	BaselineNsPerRec float64
	ScanNsPerOp      float64
	NaiveNsPerOp     float64
	NarrowSkipRatio  float64
	CompactNs        float64
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

// ddiBatchSize is how many corpus records are pre-generated per ingest
// batch, so record synthesis (RNG draws, payload formatting) stays out of
// the timed store path.
const ddiBatchSize = 1 << 16

// ddiCorpusBatches streams the corpus in pre-generated batches: fill
// synthesizes records outside any timing window, and the caller times
// only its own consumption of each batch. Batch buffers are reused, so
// consume must not retain records across calls.
func ddiCorpusBatches(seed int64, records int, consume func([]ddi.Record) error) error {
	rng := sim.NewStream(seed, 20)
	recs := make([]ddi.Record, 0, ddiBatchSize)
	slab := make([]byte, ddiBatchSize*ddiPayloadCap)
	for i := 0; i < records; {
		recs = recs[:0]
		for j := 0; j < ddiBatchSize && i < records; j, i = j+1, i+1 {
			buf := slab[j*ddiPayloadCap : j*ddiPayloadCap : (j+1)*ddiPayloadCap]
			recs = append(recs, ddiCorpusRecord(rng, i, buf))
		}
		if err := consume(recs); err != nil {
			return err
		}
	}
	return nil
}

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
	// so the segment layout is a pure function of the seed; records are
	// pre-generated per batch so only Put and the seals it triggers are
	// timed (the baseline below likewise times only its write path).
	var ingest time.Duration
	err = ddiCorpusBatches(cfg.Seed, cfg.Records, func(recs []ddi.Record) error {
		start := time.Now()
		for i := range recs {
			if _, err := s.Put(recs[i]); err != nil {
				return err
			}
		}
		ingest += time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.Seal(); err != nil {
		return nil, err
	}
	ingest += time.Since(start)
	res.IngestNsPerRec = float64(ingest) / float64(cfg.Records)

	// Baseline: the seed store's append path — one JSON line per record,
	// no columns, no zone maps — measured live over the same stream.
	base, err := ddiBaselineIngest(cfg)
	if err != nil {
		return nil, err
	}
	res.BaselineNsPerRec = base

	res.SegmentsBefore = len(s.Segments())
	res.StoreBytes = dirBytes(cfg.Dir)

	// Phase 2 — deterministic query sweep over the sealed store.
	if res.Cells, err = ddiQuerySweep(s, res.SpanVirtual, cfg.Seed, cfg.Parallel); err != nil {
		return nil, err
	}

	// Phase 3 — wall-clock scan timings on the canonical narrow window:
	// the planned scan against a full-scan reference that touches every
	// record (the seed Select's O(n) shape).
	narrow := ddi.Query{From: res.SpanVirtual / 2, To: res.SpanVirtual/2 + res.SpanVirtual/100}
	if res.ScanNsPerOp, res.NarrowSkipRatio, err = ddiTimePlannedScan(s, narrow); err != nil {
		return nil, err
	}
	if res.NaiveNsPerOp, err = ddiTimeNaiveScan(s, narrow); err != nil {
		return nil, err
	}

	// Phase 4 — compaction, then the same digest again: merging segments
	// must not change any count or checksum.
	start = time.Now()
	merged, err := s.Compact()
	if err != nil {
		return nil, err
	}
	res.CompactNs = float64(time.Since(start))
	res.MergedAway = merged
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

// ddiBaselineIngest measures the pre-columnar append path: marshal each
// record to JSON and write it as one line, exactly the seed DiskStore's
// hot loop. Records come pre-generated from the same stream as the live
// measurement, and only the marshal+write path is timed, so the
// comparison is payload-for-payload.
func ddiBaselineIngest(cfg DDIStoreConfig) (float64, error) {
	n := cfg.Records
	if n > 1_000_000 {
		n = 1_000_000 // the per-record cost is flat; no need to write 10M lines
	}
	path := filepath.Join(cfg.Dir, "baseline.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	var total time.Duration
	id := uint64(0)
	err = ddiCorpusBatches(cfg.Seed, n, func(recs []ddi.Record) error {
		start := time.Now()
		for i := range recs {
			id++
			recs[i].ID = id
			line, err := json.Marshal(recs[i])
			if err != nil {
				return err
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
			if err := w.WriteByte('\n'); err != nil {
				return err
			}
		}
		total += time.Since(start)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return float64(total) / float64(n), nil
}

// ddiTimePlannedScan streams the window through the planner repeatedly
// and returns ns per scan plus the window's segment-skip ratio.
func ddiTimePlannedScan(s *ddi.DiskStore, q ddi.Query) (nsPerOp, skip float64, err error) {
	stats, err := s.Explain(q)
	if err != nil {
		return 0, 0, err
	}
	const reps = 5
	start := time.Now()
	for r := 0; r < reps; r++ {
		it := s.Scan(q)
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			return 0, 0, err
		}
	}
	return float64(time.Since(start)) / reps, stats.SkipRatio(), nil
}

// ddiTimeNaiveScan is the reference: stream every record in the store
// and filter by hand — what a windowed Select cost before zone maps.
func ddiTimeNaiveScan(s *ddi.DiskStore, q ddi.Query) (float64, error) {
	start := time.Now()
	it := s.Scan(ddi.Query{})
	n := 0
	for it.Next() {
		r := it.Record()
		if q.Matches(r) {
			n++
		}
	}
	if err := it.Err(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("ddistore: naive reference matched nothing")
	}
	return float64(time.Since(start)), nil
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// DDIStoreTable renders the deterministic E20 digest: corpus shape, zone
// maps, and the per-query sweep. Everything here is a pure function of
// (seed, records) — `make determinism` diffs it across -parallel levels.
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

// DDIStoreTimingTable renders the machine-dependent half of E20 —
// wall-clock throughput — for stderr.
func DDIStoreTimingTable(res *DDIStoreResult) string {
	t := &Table{
		Title:   "E20: wall-clock throughput (machine-dependent)",
		Columns: []string{"path", "ns/op", "baseline ns/op", "speedup", "throughput"},
	}
	speedup := func(base, live float64) string {
		if base <= 0 || live <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", base/live)
	}
	t.Rows = append(t.Rows,
		[]string{"ingest (per record)", f2(res.IngestNsPerRec), f2(res.BaselineNsPerRec),
			speedup(res.BaselineNsPerRec, res.IngestNsPerRec),
			fmt.Sprintf("%.2fM rec/s", 1e3/res.IngestNsPerRec)},
		[]string{"narrow-window scan", f2(res.ScanNsPerOp), f2(res.NaiveNsPerOp),
			speedup(res.NaiveNsPerOp, res.ScanNsPerOp),
			fmt.Sprintf("skip %.3f", res.NarrowSkipRatio)},
		[]string{"compaction (per record)", f2(res.CompactNs / float64(res.Records)), "-", "-",
			fmt.Sprintf("%.2fM rec/s", 1e3*float64(res.Records)/res.CompactNs)},
		[]string{"store size", "-", "-", "-",
			fmt.Sprintf("%.1f B/rec (%.1f MB)", float64(res.StoreBytes)/float64(res.Records), float64(res.StoreBytes)/1e6)},
	)
	return t.String()
}
