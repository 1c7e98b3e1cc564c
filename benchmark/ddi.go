package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ddi"
)

const ddiTailPct = 99

// querySlice is how many queries make one slice of the meter.
const querySlice = 2000

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// putAll puts a batch record by record, as every caller of the store does.
func putAll(s *ddi.DiskStore, recs []ddi.Record) error {
	for i := range recs {
		if _, err := s.Put(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ingester drives one store on the ddi_ingest cadence (scale.go): batches of
// 4000 records, Compact after every 75th, DeleteBefore (now minus the
// retention window of virtual time) after every 300th.
type ingester struct {
	dir   string
	s     *ddi.DiskStore
	c     *corpus
	batch int // batches put so far
	ln    *lane

	deleted, compacts, compactRows, seals int
	userBytes                             int64
	put, compactT, deleteT                time.Duration
}

func newIngester(ctx *runCtx, prefix string) (*ingester, error) {
	dir, err := ctx.tempDir(prefix)
	if err != nil {
		return nil, err
	}
	s, err := ddi.OpenDiskStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &ingester{dir: dir, s: s, c: newCorpus(ctx.seed, ingestSpacing)}, nil
}

func (g *ingester) close() {
	g.s.Close()
	os.RemoveAll(g.dir)
}

// endOfSlice reports whether the batch just put closed a slice: the Compact
// cadence, so every slice is one partition's batches and its compaction.
func (g *ingester) endOfSlice() bool { return g.batch%compactEvery == 0 }

// step generates the next batch with the meter paused, then puts it and runs
// whatever maintenance it triggered with the meter running. It returns the
// batch's latency including that maintenance, so seal and compaction stalls
// land in the tail.
func (g *ingester) step(m *meter) (time.Duration, error) {
	recs := g.c.fill(ingestBatch) // untimed: the generator is not the program
	for i := range recs {
		g.userBytes += int64(recs[i].SizeBytes())
	}
	g.batch++
	op := int64(g.batch)
	segsBefore := 0
	if g.ln != nil {
		segsBefore = len(g.s.Segments())
	}
	m.resume()
	defer m.pause()
	t0 := time.Now()
	sp := g.ln.begin("ddi.put", op)
	err := putAll(g.s, recs)
	g.ln.end(sp)
	g.put += time.Since(t0)
	if err != nil {
		return 0, err
	}
	if g.batch%compactEvery == 0 {
		g.compactRows += g.s.Count()
		tc := time.Now()
		sp := g.ln.begin("ddi.compact", op)
		_, err := g.s.Compact()
		g.ln.end(sp)
		g.compactT += time.Since(tc)
		g.compacts++
		if err != nil {
			return 0, err
		}
	}
	if now := time.Duration(g.c.next) * ingestSpacing; g.batch%deleteEvery == 0 && now > retainVirtual {
		td := time.Now()
		sp := g.ln.begin("ddi.delete_before", op)
		n, err := g.s.DeleteBefore(now - retainVirtual)
		g.ln.end(sp)
		g.deleteT += time.Since(td)
		g.deleted += n
		if err != nil {
			return 0, err
		}
	}
	took := time.Since(t0)
	if g.ln != nil && len(g.s.Segments()) > segsBefore {
		g.seals++
	}
	return took, nil
}

// runDDIIngest measures the store's write path in its steady state. Set-up
// puts one full DeleteBefore cycle (300 batches) through the store on the
// same cadence, so that when the window opens the store already holds a
// retention window of records, its heap has reached its plateau, and every
// slice of the window — 75 batches and the Compact they earn — does the same
// work however fast the host is. A final Seal and Flush close the window.
// Op = one record; the latency unit is one batch.
func runDDIIngest(ctx *runCtx) (*result, error) {
	res := newResult("ddi_ingest", ctx.seed, ctx.traced)
	sc := ctx.sc

	// Set-up, repeated for a steady median; the last store is measured.
	var g *ingester
	var setups []float64
	for ctx.setUpAgain(setups) {
		if g != nil {
			g.close()
		}
		sw := startStopwatch()
		var err error
		if g, err = newIngester(ctx, "ingest"); err != nil {
			return nil, err
		}
		for g.c.next < sc.IngestWarm {
			if _, err := g.step(nil); err != nil {
				g.close()
				return nil, err
			}
		}
		setups = append(setups, sw.seconds())
	}
	defer g.close()
	var refRate float64
	if ctx.traced {
		// An untraced stretch of the same store first, whole slices of it,
		// for the overhead reference.
		ref, from := newMeter(), g.c.next
		for end := time.Now().Add(ctx.seconds / 4); time.Now().Before(end) || !g.endOfSlice(); {
			if _, err := g.step(ref); err != nil {
				return nil, err
			}
		}
		ref.mark(int64(g.c.next - from))
		refRate = float64(g.c.next-from) / ref.total().granted().Seconds()
	}
	warm, warmRecords := *g, g.c.next // counters at the start of the window
	g.ln = ctx.rec.lane()
	ln := g.ln

	m := newMeter()
	var lat []float64
	var stall float64
	wchar0 := procIOWritten()
	root := ln.begin("workload", -1)
	deadline := time.Now().Add(ctx.seconds)
	episode := 0 // records since the last mark
	for g.c.next-warmRecords < sc.IngestCap && time.Now().Before(deadline) {
		took, err := g.step(m)
		if err != nil {
			return nil, err
		}
		episode += ingestBatch
		if g.endOfSlice() {
			m.mark(int64(episode))
			episode = 0
		}
		ms := inMS(took)
		lat = append(lat, ms)
		stall = max(stall, ms)
	}
	m.resume()
	sp := ln.begin("ddi.seal", -1)
	err := g.s.Seal()
	ln.end(sp)
	if err == nil {
		sp = ln.begin("ddi.flush", -1)
		err = g.s.Flush()
		ln.end(sp)
	}
	m.mark(int64(episode))
	m.pause()
	ln.end(root)
	if err != nil {
		return nil, err
	}

	records := int64(g.c.next - warmRecords)
	res.Attempted = records
	res.window(m, summarise(lat, ddiTailPct), setups)
	if got, want := g.s.Count(), g.c.next-g.deleted; got != want {
		res.fail("store counts %d records, %d put minus %d deleted is %d", got, g.c.next, g.deleted, want)
		res.Failed = int64(math.Abs(float64(got - want)))
	}
	// The newest record must read back byte for byte.
	last := g.c.recs[len(g.c.recs)-1]
	if got, ok := g.s.Get(uint64(g.c.next)); !ok || got.At != last.At || string(got.Payload) != string(last.Payload) {
		res.fail("record %d does not read back after the final seal", g.c.next)
	}
	stored := dirBytes(g.dir)
	if stored > 1<<30 {
		res.fail("store grew to %d bytes; the DeleteBefore cadence must keep it under 1 GiB", stored)
	}

	L := res.Layer
	put, compactT := g.put-warm.put, g.compactT-warm.compactT
	L["ddi.put.busy_ms"] = inMS(put)
	L["ddi.put.ns_per_rec"] = float64(put) / float64(records)
	L["ddi.seal.count"] = float64(g.seals)
	L["ddi.batch_stall_ms_max"] = stall
	L["ddi.compact.count"] = float64(g.compacts - warm.compacts)
	L["ddi.compact.busy_ms"] = inMS(compactT)
	if compactT > 0 {
		L["ddi.compact.rec_per_s"] = float64(g.compactRows-warm.compactRows) / compactT.Seconds()
	}
	L["ddi.delete_before.busy_ms"] = inMS(g.deleteT - warm.deleteT)
	L["ddi.segments.count"] = float64(len(g.s.Segments()))
	if n := g.s.Count(); n > 0 {
		L["ddi.store_bytes_per_rec"] = float64(stored) / float64(n)
	}
	if user := g.userBytes - warm.userBytes; user > 0 {
		L["ddi.write_amp"] = float64(procIOWritten()-wchar0) / float64(user)
	}
	res.note("%d records in %d batches after %d in set-up; %d compactions, %d deleted in all, store %d bytes",
		records, len(lat), warmRecords, g.compacts-warm.compacts, g.deleted, stored)
	if ctx.traced {
		L["trace.overhead_frac"] = 1 - (float64(records)/m.total().granted().Seconds())/refRate
		if err := huffmanProbes(ctx, ingestSpacing, L); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// queryStore is the read-only store behind ddi_query.
type queryStore struct {
	dir string
	n   int
}

// buildQueryStore ingests the corpus, compacts once the older half is in,
// and leaves the newest rows unsealed in the memtable (so the WAL has
// something to replay), then closes the store.
func buildQueryStore(ctx *runCtx) (*queryStore, error) {
	dir, err := ctx.tempDir("query")
	if err != nil {
		return nil, err
	}
	qs := &queryStore{dir: dir, n: ctx.sc.QueryCorpus}
	s, err := ddi.OpenDiskStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	err = func() error {
		c := newCorpus(ctx.seed, querySpacing)
		unsealed := min(queryMemtableRow, qs.n/3)
		compacted, sealed := false, false
		for c.next < qs.n {
			limit := qs.n
			switch {
			case !compacted:
				limit = qs.n / 2
			case !sealed:
				limit = qs.n - unsealed
			}
			if err := putAll(s, c.fill(min(ingestBatch, limit-c.next))); err != nil {
				return err
			}
			if !compacted && c.next >= qs.n/2 {
				if err := s.Seal(); err != nil {
					return err
				}
				if _, err := s.Compact(); err != nil {
					return err
				}
				compacted = true
			} else if compacted && !sealed && c.next >= qs.n-unsealed {
				if err := s.Seal(); err != nil {
					return err
				}
				sealed = true
			}
		}
		return s.Close()
	}()
	if err != nil {
		s.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return qs, nil
}

// queryOutcome is what one generated query returned, reduced to what the
// naive reference can recompute: a row count and an order-sensitive checksum
// (or, for an aggregate, count, min and max, and the sum).
type queryOutcome struct {
	Count int
	Sum   uint64  // record checksum
	Agg   ddi.Agg // aggregates only
	Rows  int     // rows the plan scanned
	Skip  float64 // share of segments the plan pruned
}

// execQuery runs q against the store and, when ln is non-nil, records spans
// around the store calls it makes. Timed calls pass a nil h and only count
// rows; the re-check after the window passes a hash and gets the checksum.
func execQuery(s *ddi.DiskStore, q *genQuery, ln *lane, op int64, h hash.Hash64) (queryOutcome, error) {
	var out queryOutcome
	fold := func(r *ddi.Record) {
		if h != nil {
			hashRecord(h, r)
		}
	}
	switch q.Kind {
	case kindAggregate:
		sp := ln.begin("ddi.aggregate", op)
		agg, stats, err := s.Aggregate(q.Q, q.Col)
		ln.end(sp)
		if err != nil {
			return out, err
		}
		out.Count, out.Agg, out.Rows, out.Skip = agg.Count, agg, stats.RowsScanned, stats.SkipRatio()
	case kindGet:
		sp := ln.begin("ddi.get", op)
		r, ok := s.Get(q.ID)
		ln.end(sp)
		if ok {
			out.Count = 1
			fold(&r)
		}
	case kindSelect:
		sp := ln.begin("ddi.select", op)
		recs := s.Select(q.Q)
		ln.end(sp)
		out.Count = len(recs)
		for i := range recs {
			fold(&recs[i])
		}
	default:
		sp := ln.begin("ddi.scan.open", op)
		it := s.Scan(q.Q)
		ln.end(sp)
		sp = ln.begin("ddi.scan.iter", op)
		for it.Next() {
			out.Count++
			fold(it.Record())
		}
		ln.end(sp)
		if err := it.Err(); err != nil {
			return out, err
		}
		st := it.Stats()
		out.Rows, out.Skip = st.RowsScanned, st.SkipRatio()
	}
	if h != nil {
		out.Sum = h.Sum64()
	}
	return out, nil
}

// runDDIQuery measures the store's read path over a reopened, read-only
// store: eight seeded query shapes, 80% of them in the newest tenth of the
// time span. Op = latency unit = one query.
func runDDIQuery(ctx *runCtx) (*result, error) {
	res := newResult("ddi_query", ctx.seed, ctx.traced)
	sc := ctx.sc
	ln := ctx.rec.lane()

	// Set-up, repeated for a steady median: build the store, close it,
	// reopen it (segment trailers read, WAL replayed), touch the cold
	// segments and run the warm-up queries. The last store is measured.
	var setups, colds []float64
	var qs *queryStore
	var s *ddi.DiskStore
	defer func() {
		if s != nil {
			s.Close()
		}
		if qs != nil {
			os.RemoveAll(qs.dir)
		}
	}()
	for ctx.setUpAgain(setups) {
		if s != nil {
			s.Close()
			os.RemoveAll(qs.dir)
			s, qs = nil, nil
		}
		sw := startStopwatch()
		var err error
		if qs, err = buildQueryStore(ctx); err != nil {
			return nil, err
		}
		tr := time.Now()
		if s, err = ddi.OpenDiskStore(qs.dir); err != nil {
			return nil, err
		}
		res.Layer["ddi.reopen_ms"] = inMS(time.Since(tr))
		// First touch of segments whose columns are still on disk.
		tc := time.Now()
		if _, _, err := s.Aggregate(ddi.Query{Source: ddi.SourceOBD}, ddi.ColX); err != nil {
			return nil, err
		}
		colds = append(colds, inMS(time.Since(tc)))
		warm := newQueryGen(ctx.seed+1, qs.n, querySpacing)
		for i := 0; i < sc.QueryWarm; i++ {
			q := warm.next()
			if _, err := execQuery(s, &q, nil, 0, nil); err != nil {
				return nil, err
			}
		}
		setups = append(setups, sw.seconds())
	}
	res.Layer["ddi.cold_scan_ms"] = median(colds)
	if got := s.Count(); got != qs.n {
		res.fail("reopened store counts %d records, %d were put", got, qs.n)
	}

	// An untraced slice first, when tracing, for the overhead reference.
	var refRate float64
	if ctx.traced {
		g := newQueryGen(ctx.seed, qs.n, querySpacing)
		sw := startStopwatch()
		n := 0
		for end := sw.t0.Add(ctx.seconds / 4); time.Now().Before(end) && n < sc.QueryCap; n++ {
			q := g.next()
			if _, err := execQuery(s, &q, nil, 0, nil); err != nil {
				return nil, err
			}
		}
		refRate = float64(n) / sw.seconds()
	}

	g := newQueryGen(ctx.seed, qs.n, querySpacing)
	m := newMeter()
	var lat []float64
	shapeUS := make([][]float64, len(queryShapes))
	var kept []genQuery // first VerifyPerSh of each shape, re-checked below
	perShape := make([]int, len(queryShapes))
	var rowsScanned, rowsReturned int
	var skipSum float64
	var skipN int
	root := ln.begin("workload", -1)
	deadline := time.Now().Add(ctx.seconds)
	if ctx.traced {
		deadline = time.Now().Add(ctx.seconds / 2)
	}
	m.resume()
	n := 0
	for ; n < sc.QueryCap && time.Now().Before(deadline); n++ {
		q := g.next() // a handful of RNG draws: cheaper than pausing the meter
		t0 := time.Now()
		sp := ln.begin("ddi.query", int64(n))
		out, err := execQuery(s, &q, ln, int64(n), nil)
		ln.end(sp)
		took := time.Since(t0)
		if err != nil {
			return nil, err
		}
		lat = append(lat, inMS(took))
		if ln != nil {
			shapeUS[q.Shape] = append(shapeUS[q.Shape], inUS(took))
		}
		if q.Kind == kindScan {
			rowsScanned += out.Rows
			rowsReturned += out.Count
			skipSum += out.Skip
			skipN++
		}
		if perShape[q.Shape] < sc.VerifyPerSh {
			perShape[q.Shape]++
			kept = append(kept, q)
		}
		if (n+1)%querySlice == 0 {
			m.mark(querySlice)
		}
	}
	m.mark(int64(n % querySlice))
	m.pause()
	ln.end(root)
	res.Attempted = int64(n)
	res.window(m, summarise(lat, ddiTailPct), setups)
	res.note("%d queries over %d records", n, qs.n)

	L := res.Layer
	if skipN > 0 {
		L["ddi.plan.skip_ratio"] = skipSum / float64(skipN)
	}
	if rowsReturned > 0 {
		L["ddi.plan.rows_scanned_per_row_returned"] = float64(rowsScanned) / float64(rowsReturned)
	}
	L["ddi.segments.count"] = float64(len(s.Segments()))
	L["ddi.store_bytes_per_rec"] = float64(dirBytes(qs.dir)) / float64(qs.n)
	if ctx.traced {
		for i, name := range queryShapes {
			sort.Float64s(shapeUS[i])
			L["ddi.q."+name+".us_p50"] = percentile(shapeUS[i], 50)
		}
		var openUS []float64
		var iter time.Duration
		for i := range ln.spans {
			sp := &ln.spans[i]
			switch sp.Name {
			case "ddi.scan.open":
				openUS = append(openUS, inUS(sp.End-sp.Start))
			case "ddi.scan.iter":
				iter += sp.End - sp.Start
			}
		}
		sort.Float64s(openUS)
		L["ddi.scan.open_us_p50"] = percentile(openUS, 50)
		if rowsReturned > 0 {
			L["ddi.scan.iter_ns_per_row"] = float64(iter) / float64(rowsReturned)
		}
		L["trace.overhead_frac"] = 1 - (float64(n)/m.total().granted().Seconds())/refRate
		if err := huffmanProbes(ctx, querySpacing, L); err != nil {
			return nil, err
		}
	}

	keptOut := make([]queryOutcome, len(kept))
	for i := range kept {
		var err error
		if keptOut[i], err = execQuery(s, &kept[i], nil, 0, fnv.New64a()); err != nil {
			return nil, err
		}
	}
	wrong, digest := verifyQueries(ctx, qs.n, kept, keptOut)
	res.Failed = int64(wrong)
	if wrong > 0 {
		res.fail("%d of %d re-checked queries differ from the naive filter over the regenerated corpus", wrong, len(kept))
	}
	res.Digests["queries"] = digest
	res.Digests["corpus"] = fmt.Sprintf("%016x", corpusChecksum(ctx.seed, querySpacing, min(qs.n, maxSlab)))
	checkGolden(ctx, res)
	return res, nil
}

// verifyQueries regenerates the corpus and answers every kept query with
// Query.Matches alone, then compares with what the store returned. It
// returns how many differ and a digest of the reference answers.
func verifyQueries(ctx *runCtx, n int, kept []genQuery, got []queryOutcome) (wrong int, digest string) {
	type ref struct {
		count   int
		h       hash.Hash64
		agg     ddi.Agg
		seenAgg bool
	}
	refs := make([]ref, len(kept))
	for i := range refs {
		refs[i].h = fnv.New64a()
	}
	c := newCorpus(ctx.seed, querySpacing)
	for c.next < n {
		base := c.next
		recs := c.fill(min(maxSlab, n-c.next))
		for j := range recs {
			r := &recs[j]
			r.ID = uint64(base + j + 1)
			for i := range kept {
				q := &kept[i]
				rf := &refs[i]
				switch q.Kind {
				case kindGet:
					if r.ID == q.ID {
						rf.count = 1
						hashRecord(rf.h, r)
					}
				case kindAggregate:
					if !q.Q.Matches(r) {
						continue
					}
					v := r.X
					if q.Col == ddi.ColY {
						v = r.Y
					}
					if !rf.seenAgg || v < rf.agg.Min {
						rf.agg.Min = v
					}
					if !rf.seenAgg || v > rf.agg.Max {
						rf.agg.Max = v
					}
					rf.seenAgg = true
					rf.agg.Sum += v
					rf.count++
				default:
					if q.Q.Limit > 0 && rf.count >= q.Q.Limit {
						continue
					}
					if q.Q.Matches(r) {
						rf.count++
						hashRecord(rf.h, r)
					}
				}
			}
		}
	}
	d := fnv.New64a()
	for i := range kept {
		rf, g := &refs[i], &got[i]
		ok := rf.count == g.Count
		if kept[i].Kind == kindAggregate {
			tol := 1e-9 * (1 + math.Abs(rf.agg.Sum))
			ok = ok && rf.agg.Min == g.Agg.Min && rf.agg.Max == g.Agg.Max && math.Abs(rf.agg.Sum-g.Agg.Sum) <= tol
			fmt.Fprintf(d, "%d|%d|%v|%v\n", kept[i].Shape, rf.count, rf.agg.Min, rf.agg.Max)
		} else {
			ok = ok && rf.h.Sum64() == g.Sum
			fmt.Fprintf(d, "%d|%d|%016x\n", kept[i].Shape, rf.count, rf.h.Sum64())
		}
		if !ok {
			wrong++
		}
	}
	return wrong, fmt.Sprintf("%016x", d.Sum64())
}
