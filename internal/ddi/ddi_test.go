package ddi

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func newDDI(t *testing.T) *DDI {
	t.Helper()
	road, err := geo.NewRoad(10000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Options{
		Dir:      t.TempDir(),
		Mobility: geo.Mobility{Road: road, SpeedMS: 15},
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Dir: t.TempDir()}, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := New(Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestCollectStoresAllSources(t *testing.T) {
	d := newDDI(t)
	recs, err := d.Collect(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// OBD, GPS, weather, traffic always; social only when events fired.
	if len(recs) < 4 {
		t.Fatalf("collected %d records, want >= 4", len(recs))
	}
	seen := map[Source]bool{}
	for _, r := range recs {
		seen[r.Source] = true
		if r.ID == 0 {
			t.Fatal("record without ID")
		}
		if r.At != time.Minute {
			t.Fatalf("record at %v", r.At)
		}
	}
	for _, s := range []Source{SourceOBD, SourceGPS, SourceWeather, SourceTraffic} {
		if !seen[s] {
			t.Fatalf("source %s missing", s)
		}
	}
	// OBD payload decodes into a reading.
	obd := d.Store().Select(Query{Source: SourceOBD})
	var reading sensors.OBDReading
	if err := json.Unmarshal(obd[0].Payload, &reading); err != nil {
		t.Fatalf("obd payload: %v", err)
	}
	if reading.SpeedKPH < 40 || reading.SpeedKPH > 70 {
		t.Fatalf("speed = %v, want ~54 kph", reading.SpeedKPH)
	}
}

func TestCollectSocialEventsEventually(t *testing.T) {
	d := newDDI(t)
	total := 0
	for m := 1; m <= 120; m++ {
		recs, err := d.Collect(time.Duration(m) * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Source == SourceSocial {
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no social events in 2 hours (mean interval 10 min)")
	}
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	d := newDDI(t)
	rec, err := d.Upload(time.Second, SourceUser, 10, 20, []byte(`{"app":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	got, lat, err := d.DownloadByID(2*time.Second, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || string(got.Payload) != `{"app":"x"}` {
		t.Fatalf("round trip = %+v", got)
	}
	if lat != memHitLatency {
		t.Fatalf("cached download latency = %v, want %v", lat, memHitLatency)
	}
	if _, err := d.Upload(0, SourceUser, 0, 0, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// TestTwoTierLatency is the E8 property: a cache hit is much faster than
// the disk path, and an expired entry falls back to disk then re-promotes.
func TestTwoTierLatency(t *testing.T) {
	d := newDDI(t)
	rec, err := d.Upload(0, SourceUser, 0, 0, []byte(`{"k":"v"}`))
	if err != nil {
		t.Fatal(err)
	}
	_, hot, err := d.DownloadByID(time.Second, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Past the default 5-minute TTL the cache misses.
	_, cold, err := d.DownloadByID(10*time.Minute, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cold <= hot {
		t.Fatalf("disk path (%v) not slower than cache hit (%v)", cold, hot)
	}
	// Promotion: the very next access is hot again.
	_, hot2, err := d.DownloadByID(10*time.Minute+time.Second, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hot2 != memHitLatency {
		t.Fatalf("promoted access latency = %v", hot2)
	}
}

func TestDownloadRangeQuery(t *testing.T) {
	d := newDDI(t)
	for i := 1; i <= 5; i++ {
		if _, err := d.Collect(time.Duration(i) * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	recs, lat, err := d.Download(6*time.Minute, Query{
		Source: SourceOBD, From: 2 * time.Minute, To: 4 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("range query = %d records, want 3", len(recs))
	}
	if lat <= 0 {
		t.Fatal("range query has no latency")
	}
	if _, _, err := d.DownloadByID(0, 99999); err == nil {
		t.Fatal("missing record download succeeded")
	}
}

func TestMigrateToCloud(t *testing.T) {
	d := newDDI(t)
	for i := 1; i <= 10; i++ {
		if _, err := d.Collect(time.Duration(i) * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Store().Count()
	server := cloud.NewDataServer()
	n, dur, err := d.MigrateToCloud(server, "pseudo-abc", 6*time.Minute, func(bytes float64) (time.Duration, error) {
		return time.Duration(bytes/1e6*float64(time.Second)) + time.Millisecond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || dur <= 0 {
		t.Fatalf("migrated %d in %v", n, dur)
	}
	if server.Count() != n {
		t.Fatalf("server has %d, migrated %d", server.Count(), n)
	}
	if d.Store().Count() != before-n {
		t.Fatalf("local store kept migrated records: %d -> %d", before, d.Store().Count())
	}
	// Pseudonym, not identity, crosses the wire.
	if got := server.Records("pseudo-abc"); got != n {
		t.Fatalf("server holds %d of %d records under the pseudonym", got, n)
	}
	// Nothing left to migrate.
	n2, _, err := d.MigrateToCloud(server, "pseudo-abc", 6*time.Minute, nil)
	if err != nil || n2 != 0 {
		t.Fatalf("second migration = %d, %v", n2, err)
	}
	if _, _, err := d.MigrateToCloud(nil, "p", time.Minute, nil); err == nil {
		t.Fatal("nil server accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newDDI(t)
	rec, _ := d.Upload(0, SourceUser, 0, 0, []byte("{}"))
	if _, _, err := d.DownloadByID(time.Second, rec.ID); err != nil {
		t.Fatal(err)
	}
	ups, downs, hitRate := d.Stats()
	if ups != 1 || downs != 1 {
		t.Fatalf("stats = %d/%d", ups, downs)
	}
	if hitRate <= 0 {
		t.Fatal("hit rate not recorded")
	}
}

func TestFaultInjectionReachesStoredData(t *testing.T) {
	d := newDDI(t)
	d.OBD().InjectFault(sensors.FaultOverheat)
	for i := 1; i <= 60; i++ {
		if _, err := d.Collect(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	recs := d.Store().Select(Query{Source: SourceOBD})
	foundDTC := false
	for _, r := range recs {
		var reading sensors.OBDReading
		if err := json.Unmarshal(r.Payload, &reading); err != nil {
			t.Fatal(err)
		}
		for _, c := range reading.DTCs {
			if c == sensors.DTCOverheat {
				foundDTC = true
			}
		}
	}
	if !foundDTC {
		t.Fatal("injected overheat never surfaced a DTC in stored data")
	}
}

func TestInstrumentWiresCacheCountersIntoRegistry(t *testing.T) {
	d := newDDI(t)
	reg := telemetry.NewRegistry()
	tr := trace.New()
	d.Instrument(obs.Scope{Metrics: reg, Tracer: tr})

	rec, err := d.Upload(0, SourceUser, 0, 0, []byte(`{"k":"v"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Hit, hit, then TTL-expired miss with disk fallback.
	if _, _, err := d.DownloadByID(time.Second, rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.DownloadByID(2*time.Second, rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.DownloadByID(10*time.Minute, rec.ID); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ddi.cache.hits"); got != 2 {
		t.Fatalf("ddi.cache.hits = %v, want 2", got)
	}
	if got := reg.Counter("ddi.cache.misses"); got != 1 {
		t.Fatalf("ddi.cache.misses = %v, want 1", got)
	}
	if got := reg.Counter("ddi.cache.expirations"); got != 1 {
		t.Fatalf("ddi.cache.expirations = %v, want 1", got)
	}
	if got := reg.Counter("ddi.uploads"); got != 1 {
		t.Fatalf("ddi.uploads = %v, want 1", got)
	}
	if got := reg.Counter("ddi.downloads"); got != 3 {
		t.Fatalf("ddi.downloads = %v, want 3", got)
	}
	if got := reg.Counter("ddi.disk_reads"); got != 1 {
		t.Fatalf("ddi.disk_reads = %v, want 1", got)
	}
	if h := reg.Histogram("ddi.read_ms"); h == nil || h.Count() != 3 {
		t.Fatalf("ddi.read_ms histogram = %+v", h)
	}
	if tr.SpanCount() == 0 {
		t.Fatal("no ddi spans recorded")
	}
}

// TestCacheEvictionCounter: evictions are counted, not logged — a full
// cache must not flood the flight recorder with one event per insertion.
func TestCacheEvictionCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(2)
	rec.Emit(0, "test", obs.SevInfo, "marker")
	c, err := NewMemCache(2, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c.instrument(obs.Scope{Metrics: reg, Events: rec})
	for id := uint64(1); id <= 4; id++ {
		c.Put(Record{ID: id, Source: SourceUser, At: 1, Payload: []byte("x")}, 0)
	}
	if got := reg.Counter("ddi.cache.evictions"); got != 2 {
		t.Fatalf("ddi.cache.evictions = %v, want 2", got)
	}
	if evs := rec.Events(); len(evs) != 1 || evs[0].Name != "marker" {
		t.Fatalf("recorder holds %+v after the puts, want only the marker event", evs)
	}
}
