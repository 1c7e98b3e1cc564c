package libvdap

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// newObsServer assembles a minimal server with observability stores attached
// and a controllable virtual clock (atomic: the stream test advances it
// from another goroutine while the handler reads it).
func newObsServer(t *testing.T) (*httptest.Server, *Client, *obs.SeriesStore, *obs.Recorder, *atomic.Int64) {
	t.Helper()
	now := new(atomic.Int64)
	now.Store(int64(1 * time.Second))
	store := obs.NewSeriesStore(64)
	rec := obs.NewRecorder(64)
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{Series: store, Events: rec}, func() time.Duration { return time.Duration(now.Load()) })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ts, client, store, rec, now
}

func TestSeriesEndpoint(t *testing.T) {
	_, client, store, _, _ := newObsServer(t)
	store.RecordGauge("fleet.queue_depth", 100*time.Millisecond, 3)
	store.RecordGauge("fleet.queue_depth", 200*time.Millisecond, 5)

	p, err := client.MetricsSeries(-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 1 || p.Series[0].Name != "fleet.queue_depth" || p.Series[0].Points != 2 {
		t.Fatalf("payload = %+v", p)
	}
	if p.WatermarkNs != int64(200*time.Millisecond) {
		t.Fatalf("watermark = %d", p.WatermarkNs)
	}

	// ?since filters strictly after the watermark.
	p, err = client.MetricsSeries(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 1 || p.Series[0].Points != 1 || p.Series[0].V[0] != 5 {
		t.Fatalf("filtered payload = %+v", p)
	}
}

func TestEventsEndpointFilters(t *testing.T) {
	_, client, _, rec, _ := newObsServer(t)
	rec.Emit(10*time.Millisecond, &obs.EventKind{Component: "offload", Severity: obs.SevInfo, Name: "breaker.closed"})
	rec.Emit(20*time.Millisecond, &obs.EventKind{Component: "faults", Severity: obs.SevWarn, Name: "outage.begin"}, trace.String("site", "edge-0"))
	rec.Emit(30*time.Millisecond, &obs.EventKind{Component: "offload", Severity: obs.SevError, Name: "resilient.exhausted"})

	all, err := client.Events(-1, "", obs.SevDebug)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("events = %+v", all)
	}

	warn, err := client.Events(-1, "", obs.SevWarn)
	if err != nil {
		t.Fatal(err)
	}
	if len(warn) != 2 || warn[0].Name != "outage.begin" {
		t.Fatalf("warn events = %+v", warn)
	}

	offload, err := client.Events(15*time.Millisecond, "offload", obs.SevDebug)
	if err != nil {
		t.Fatal(err)
	}
	if len(offload) != 1 || offload[0].Name != "resilient.exhausted" {
		t.Fatalf("offload events = %+v", offload)
	}

	if _, err := client.Events(-1, "", obs.Severity(99)); err == nil {
		t.Fatal("bad severity accepted")
	}
}

func TestEventsTableFormat(t *testing.T) {
	ts, _, _, rec, _ := newObsServer(t)
	rec.Emit(10*time.Millisecond, &obs.EventKind{Component: "fleet", Severity: obs.SevDebug, Name: "commit.begin"}, trace.Int("offloads", 2))
	resp, err := http.Get(ts.URL + "/api/v1/events?format=table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "commit.begin") || !strings.Contains(string(body), "COMPONENT") {
		t.Fatalf("table = %q", body)
	}
}

func TestStreamIncrementalFrames(t *testing.T) {
	_, client, store, rec, now := newObsServer(t)
	store.RecordGauge("g", 100*time.Millisecond, 1)
	rec.Emit(100*time.Millisecond, &obs.EventKind{Component: "fleet", Severity: obs.SevInfo, Name: "first"})

	// Feed a second batch past the server's clock so a second frame fires
	// once the watermark advances.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		store.RecordGauge("g", 2*time.Second, 2)
		rec.Emit(2*time.Second, &obs.EventKind{Component: "fleet", Severity: obs.SevInfo, Name: "second"})
		now.Store(int64(3 * time.Second))
	}()

	frames, err := client.StreamFrames(-1, 2)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	if len(frames[0].Events) != 1 || frames[0].Events[0].Name != "first" {
		t.Fatalf("frame 0 events = %+v", frames[0].Events)
	}
	if frames[0].Series == nil || len(frames[0].Series.Series) != 1 || frames[0].Series.Series[0].Points != 1 {
		t.Fatalf("frame 0 series = %+v", frames[0].Series)
	}
	// Frame 1 is incremental: only the post-watermark point and event.
	if len(frames[1].Events) != 1 || frames[1].Events[0].Name != "second" {
		t.Fatalf("frame 1 events = %+v", frames[1].Events)
	}
	if frames[1].Series.Series[0].Points != 1 || frames[1].Series.Series[0].V[0] != 2 {
		t.Fatalf("frame 1 series = %+v", frames[1].Series.Series[0])
	}
	// The watermark, the resume cursor, stops just short of the clock.
	if frames[1].WatermarkNs != int64(3*time.Second-1) {
		t.Fatalf("frame 1 watermark = %d", frames[1].WatermarkNs)
	}
}

// TestStreamShipsRecordsAtTheClockInstant: the stream reads the clock
// without the run lock, so records can still land at the current instant
// after a frame is built. The next frame must carry them.
func TestStreamShipsRecordsAtTheClockInstant(t *testing.T) {
	ts, _, store, rec, now := newObsServer(t) // clock at 1 s
	resp, err := http.Get(ts.URL + "/api/v1/stream?frames=2&poll=0.005")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var first obs.Frame
	if err := dec.Decode(&first); err != nil {
		t.Fatalf("frame 0: %v", err)
	}
	rec.Emit(time.Second, &obs.EventKind{Component: "fleet", Severity: obs.SevInfo, Name: "late"})
	store.RecordGauge("g", time.Second, 7)
	now.Store(int64(2 * time.Second))

	var second obs.Frame
	if err := dec.Decode(&second); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if len(second.Events) != 1 || second.Events[0].Name != "late" {
		t.Fatalf("frame 1 events = %+v, want the event recorded at 1 s", second.Events)
	}
	if second.Series == nil || len(second.Series.Series) != 1 || second.Series.Series[0].V[0] != 7 {
		t.Fatalf("frame 1 series = %+v, want the point recorded at 1 s", second.Series)
	}
}

// TestObsEndpointsUnavailable pins the 503 + JSON error contract when no
// store or recorder is attached.
func TestObsEndpointsUnavailable(t *testing.T) {
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, path := range []string{
		"/api/v1/metrics", "/api/v1/metrics",
		"/api/v1/trace", "/api/v1/trace",
		"/api/v1/metrics/series", "/api/v1/metrics/series",
		"/api/v1/events", "/api/v1/events",
		"/api/v1/stream", "/api/v1/stream",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("%s content type = %q", path, ct)
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
			t.Fatalf("%s error body: %v / %+v", path, err, apiErr)
		}
		resp.Body.Close()
	}
}

// TestJSONContentTypeCharset verifies every JSON response declares its
// charset, success and error alike.
func TestJSONContentTypeCharset(t *testing.T) {
	ts, _, _, _, _ := newObsServer(t)
	for _, path := range []string{"/api/v1/status", "/api/v1/metrics/series", "/api/v1/events", "/api/v1/models/ghost"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("%s content type = %q", path, ct)
		}
	}
}

// TestGzipResponses round-trips the negotiating endpoints — the four cached
// snapshot routes and /trace — through gzip when the client advertises
// support, and pins identity encoding otherwise. Both forms carry an
// explicit Content-Length: nothing negotiated is chunked.
func TestGzipResponses(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterHandle("hits").Add(7)
	store := obs.NewSeriesStore(64)
	store.RecordGauge("g", time.Millisecond, 1)
	sc := obs.Scope{Metrics: reg, Tracer: trace.New(), Events: obs.NewRecorder(64), Series: store}
	srv, err := NewServer(nil, nil, nil, nil, nil, sc, func() time.Duration { return time.Second })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	for _, path := range []string{"/api/v1/status", "/api/v1/metrics", "/api/v1/trace", "/api/v1/metrics/series", "/api/v1/events"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s not gzipped: %q", path, resp.Header.Get("Content-Encoding"))
		}
		if got := resp.Header.Get("Vary"); got != "Accept-Encoding" {
			t.Fatalf("%s gzip response Vary = %q", path, got)
		}
		if resp.ContentLength <= 0 {
			t.Fatalf("%s gzip response Content-Length = %d", path, resp.ContentLength)
		}
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			t.Fatalf("%s gzip reader: %v", path, err)
		}
		var decoded map[string]any
		if err := json.NewDecoder(gz).Decode(&decoded); err != nil {
			t.Fatalf("%s decode: %v", path, err)
		}
		gz.Close()
		resp.Body.Close()

		// A client that does not accept gzip must get identity-coded JSON
		// (an explicit header: the transport would otherwise add gzip itself
		// and decode the reply behind the test's back).
		plainReq, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		plainReq.Header.Set("Accept-Encoding", "identity")
		plain, err := http.DefaultTransport.RoundTrip(plainReq)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Header.Get("Content-Encoding") == "gzip" {
			t.Fatalf("%s gzipped without Accept-Encoding", path)
		}
		// The identity body of a negotiating route varies on the request
		// header too, or a cache would replay it to gzip-accepting clients.
		if got := plain.Header.Get("Vary"); got != "Accept-Encoding" {
			t.Fatalf("%s identity response Vary = %q", path, got)
		}
		if plain.ContentLength <= 0 {
			t.Fatalf("%s identity response Content-Length = %d", path, plain.ContentLength)
		}
		if err := json.NewDecoder(plain.Body).Decode(&decoded); err != nil {
			t.Fatalf("%s plain decode: %v", path, err)
		}
		plain.Body.Close()
	}
}
