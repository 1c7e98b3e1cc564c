package ddi

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/obs"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// memHitLatency is the in-memory tier's access cost — the Redis-role
// latency in the two-tier design.
const memHitLatency = 50 * time.Microsecond

// DDI is the driving data integrator facade: collectors on the bottom,
// the two-tier database in the middle, and upload/download service calls
// on top.
type DDI struct {
	store *DiskStore
	cache *MemCache
	ssd   *hardware.Storage

	obd       *sensors.OBD
	gps       *sensors.GPS
	feeds     *Feeds
	rng       *sim.RNG
	mob       geo.Mobility
	uploads   int
	downloads int

	scope obs.Scope
	m     ddiMetrics
}

// ddiMetrics holds the DDI's interned metric handles, resolved once in
// Instrument. All handles are nil-safe, so an uninstrumented DDI emits
// through them for free.
type ddiMetrics struct {
	collections      *telemetry.Counter
	recordsCollected *telemetry.Counter
	uploads          *telemetry.Counter
	bytesStored      *telemetry.Counter
	downloads        *telemetry.Counter
	diskReads        *telemetry.Counter
	aggregates       *telemetry.Counter
	readMS           *telemetry.HistogramHandle
	diskReadMS       *telemetry.HistogramHandle
}

// Instrument attaches the DDI's observability scope and hands it to the
// cache tier. Service-layer calls then emit `ddi` spans and `ddi.*`
// metrics; the cache mirrors its hit/miss/eviction outcomes as
// `ddi.cache.*` counters and emits a `ddi` event per capacity eviction.
func (d *DDI) Instrument(sc obs.Scope) {
	d.scope = sc
	d.cache.instrument(sc)
	reg := sc.Metrics
	d.m = ddiMetrics{
		collections:      reg.CounterHandle("ddi.collections"),
		recordsCollected: reg.CounterHandle("ddi.records_collected"),
		uploads:          reg.CounterHandle("ddi.uploads"),
		bytesStored:      reg.CounterHandle("ddi.bytes_stored"),
		downloads:        reg.CounterHandle("ddi.downloads"),
		diskReads:        reg.CounterHandle("ddi.disk_reads"),
		aggregates:       reg.CounterHandle("ddi.aggregates"),
		readMS:           reg.HistogramHandle("ddi.read_ms"),
		diskReadMS:       reg.HistogramHandle("ddi.disk_read_ms"),
	}
}

// Options configures New.
type Options struct {
	// Dir is the disk-store directory (required).
	Dir string
	// Mobility drives the GPS collector.
	Mobility geo.Mobility
}

// The in-memory tier holds cacheCapacity entries for cacheTTL each.
const (
	cacheCapacity = 4096
	cacheTTL      = 5 * time.Minute
)

// New assembles a DDI.
func New(opts Options, rng *sim.RNG) (*DDI, error) {
	if rng == nil {
		return nil, fmt.Errorf("ddi: nil RNG")
	}
	store, err := OpenDiskStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	cache, err := NewMemCache(cacheCapacity, cacheTTL)
	if err != nil {
		return nil, err
	}
	obd, err := sensors.NewOBD(rng.Fork())
	if err != nil {
		return nil, err
	}
	gps, err := sensors.NewGPS(opts.Mobility, rng.Fork())
	if err != nil {
		return nil, err
	}
	feeds, err := NewFeeds(rng.Fork())
	if err != nil {
		return nil, err
	}
	return &DDI{
		store: store, cache: cache, ssd: hardware.DefaultSSD(),
		obd: obd, gps: gps, feeds: feeds, rng: rng.Fork(), mob: opts.Mobility,
	}, nil
}

// OBD exposes the OBD collector (fault injection lives there).
func (d *DDI) OBD() *sensors.OBD { return d.obd }

// Cache exposes the in-memory tier for statistics.
func (d *DDI) Cache() *MemCache { return d.cache }

// Store exposes the disk tier.
func (d *DDI) Store() *DiskStore { return d.store }

// Collect performs one collection round at virtual time now: OBD, GPS,
// weather, traffic, and any pending social events are sampled, stored, and
// cached. It returns the stored records.
func (d *DDI) Collect(now time.Duration) ([]Record, error) {
	span := d.scope.Tracer.StartSpanAt("ddi", "ddi.collect", now)
	recs, err := d.collect(now)
	if err != nil {
		span.SetAttr(trace.String("error", err.Error()))
	} else {
		span.SetAttr(trace.Int("records", len(recs)))
	}
	span.FinishAt(now)
	if err == nil {
		d.m.collections.Inc()
		d.m.recordsCollected.Add(float64(len(recs)))
	}
	return recs, err
}

// collect is the uninstrumented body of Collect.
func (d *DDI) collect(now time.Duration) ([]Record, error) {
	pos := d.mob.PositionAt(now)
	speedKPH := d.mob.SpeedMS * 3.6

	var out []Record
	add := func(source Source, v any) error {
		payload, err := MarshalPayload(v)
		if err != nil {
			return err
		}
		rec := Record{Source: source, At: now, X: pos.X, Y: pos.Y, Payload: payload}
		id, err := d.store.Put(rec)
		if err != nil {
			return err
		}
		rec.ID = id
		d.cache.Put(rec, now)
		out = append(out, rec)
		return nil
	}

	if err := add(SourceOBD, d.obd.Read(now, speedKPH)); err != nil {
		return nil, err
	}
	if err := add(SourceGPS, d.gps.Fix(now)); err != nil {
		return nil, err
	}
	if err := add(SourceWeather, d.feeds.Weather(now)); err != nil {
		return nil, err
	}
	if err := add(SourceTraffic, d.feeds.Traffic(now)); err != nil {
		return nil, err
	}
	// Social items arrive as free text and pass through the NLP stage
	// (Figure 7) before storage; unparseable posts are dropped.
	for _, ev := range d.feeds.Social(now) {
		post, err := ComposePost(ev, d.rng)
		if err != nil {
			return nil, err
		}
		parsed, ok := ExtractEvent(post.Text, ev.At)
		if !ok {
			continue
		}
		parsed.Y = ev.Y
		if err := add(SourceSocial, parsed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Upload is the service-layer upload request: applications push their own
// records (paper: "for users to upload their data onto the DDI"). The
// record lands in the cache first and persists immediately (write-through;
// the paper's delayed write-back is modeled by TTL-based cache residency).
func (d *DDI) Upload(now time.Duration, source Source, x, y float64, payload []byte) (Record, error) {
	rec := Record{Source: source, At: now, X: x, Y: y, Payload: payload}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	id, err := d.store.Put(rec)
	if err != nil {
		return Record{}, err
	}
	rec.ID = id
	d.cache.Put(rec, now)
	d.uploads++
	if d.scope.Tracer.Enabled() {
		d.scope.Tracer.SpanAt("ddi", "ddi.upload", now, now,
			trace.String("source", string(source)), trace.Int("bytes", rec.SizeBytes()))
	}
	d.m.uploads.Inc()
	d.m.bytesStored.Add(float64(rec.SizeBytes()))
	return rec, nil
}

// DownloadByID is the service-layer point lookup: in-memory first, disk on
// miss with promotion. The returned latency is the simulated two-tier
// access cost.
func (d *DDI) DownloadByID(now time.Duration, id uint64) (Record, time.Duration, error) {
	d.downloads++
	d.m.downloads.Inc()
	if rec, ok := d.cache.Get(id, now); ok {
		if d.scope.Tracer.Enabled() {
			d.scope.Tracer.SpanAt("ddi", "ddi.get", now, now+memHitLatency,
				trace.String("tier", "mem"))
		}
		d.m.readMS.ObserveDuration(memHitLatency)
		return rec, memHitLatency, nil
	}
	rec, ok := d.store.Get(id)
	if !ok {
		return Record{}, 0, fmt.Errorf("ddi: record %d not found", id)
	}
	readTime, err := d.ssd.ReadTime(float64(rec.SizeBytes()) / 1e6)
	if err != nil {
		return Record{}, 0, err
	}
	d.cache.Put(rec, now) // promote
	if d.scope.Tracer.Enabled() {
		d.scope.Tracer.SpanAt("ddi", "ddi.get", now, now+memHitLatency+readTime,
			trace.String("tier", "disk"), trace.Int("bytes", rec.SizeBytes()))
	}
	d.m.diskReads.Inc()
	d.m.readMS.ObserveDuration(memHitLatency + readTime)
	d.m.diskReadMS.ObserveDuration(readTime)
	return rec, memHitLatency + readTime, nil
}

// Download is the service-layer range query (keyed by time/location per
// the paper). Range queries always hit the disk tier's index; results are
// promoted for subsequent point lookups.
func (d *DDI) Download(now time.Duration, q Query) ([]Record, time.Duration, error) {
	d.downloads++
	// One pass over the store cursor: byte count, cache promotion and the
	// result slice together.
	it := d.store.Scan(q)
	var recs []Record
	var bytes float64
	for it.Next() {
		rec := *it.Record()
		bytes += float64(rec.SizeBytes())
		d.cache.Put(rec, now)
		recs = append(recs, rec)
	}
	if err := it.Err(); err != nil {
		return nil, 0, err
	}
	latency, err := d.ssd.ReadTime(bytes / 1e6)
	if err != nil {
		return nil, 0, err
	}
	if d.scope.Tracer.Enabled() {
		d.scope.Tracer.SpanAt("ddi", "ddi.query", now, now+latency,
			trace.Int("records", len(recs)), trace.F64("bytes", bytes))
	}
	d.m.downloads.Inc()
	d.m.diskReads.Inc()
	d.m.readMS.ObserveDuration(latency)
	d.m.diskReadMS.ObserveDuration(latency)
	return recs, latency, nil
}

// Aggregate is the service-layer windowed aggregate: count/min/max/mean
// of a column over the records matching q, answered by the store's query
// planner. Segments the zone maps prune cost nothing; fully-covered
// segments answer from their footers — the modeled disk latency charges
// only for the rows the plan actually scanned.
func (d *DDI) Aggregate(now time.Duration, q Query, col Column) (Agg, PlanStats, time.Duration, error) {
	agg, stats, err := d.store.Aggregate(q, col)
	if err != nil {
		return Agg{}, PlanStats{}, 0, err
	}
	// Columnar scan cost: ~48 bytes of fixed columns per scanned sealed
	// row (memtable rows are already resident).
	bytes := float64(stats.RowsScanned-stats.MemRows) * 48
	latency, err := d.ssd.ReadTime(bytes / 1e6)
	if err != nil {
		return Agg{}, PlanStats{}, 0, err
	}
	if d.scope.Tracer.Enabled() {
		d.scope.Tracer.SpanAt("ddi", "ddi.aggregate", now, now+latency,
			trace.String("column", col.String()), trace.Int("count", agg.Count),
			trace.Int("pruned", stats.Pruned), trace.Int("rows_scanned", stats.RowsScanned))
	}
	d.m.aggregates.Inc()
	d.m.readMS.ObserveDuration(latency)
	return agg, stats, latency, nil
}

// MigrateToCloud ships records older than `before` to the community data
// server and deletes them locally (paper: "eventually migrated to a cloud
// based data server"). It returns the migrated count and the simulated
// transfer duration over the given path.
func (d *DDI) MigrateToCloud(server *cloud.DataServer, pseudonym string, before time.Duration, cost func(sizeBytes float64) (time.Duration, error)) (int, time.Duration, error) {
	if server == nil {
		return 0, 0, fmt.Errorf("ddi: nil data server")
	}
	if before <= 0 {
		return 0, 0, nil
	}
	// Stream the expiring window off the store cursor: each record is
	// converted in place, so the local []Record is never materialized.
	it := d.store.Scan(Query{To: before - time.Nanosecond})
	var bytes float64
	var recs []cloud.Record
	for it.Next() {
		r := it.Record()
		bytes += float64(r.SizeBytes())
		recs = append(recs, cloud.Record{
			Vehicle: pseudonym,
			Source:  string(r.Source),
			At:      r.At,
			Payload: append([]byte(nil), r.Payload...),
		})
	}
	if err := it.Err(); err != nil {
		return 0, 0, err
	}
	if len(recs) == 0 {
		return 0, 0, nil
	}
	var dur time.Duration
	if cost != nil {
		var err error
		dur, err = cost(bytes)
		if err != nil {
			return 0, 0, err
		}
	}
	server.Ingest(recs...)
	if _, err := d.store.DeleteBefore(before); err != nil {
		return 0, 0, err
	}
	return len(recs), dur, nil
}

// Stats summarizes service-layer activity.
func (d *DDI) Stats() (uploads, downloads int, cacheHitRate float64) {
	return d.uploads, d.downloads, d.cache.HitRate()
}

// Close flushes and closes the disk tier.
func (d *DDI) Close() error { return d.store.Close() }
