package libvdap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// newCachedServer builds a server with telemetry + observability attached
// and an externally-driven atomic clock, the shape of a live platform.
func newCachedServer(t *testing.T) (*httptest.Server, *Server, *telemetry.Registry, *atomic.Int64) {
	t.Helper()
	now := new(atomic.Int64)
	now.Store(int64(time.Second))
	reg := telemetry.NewRegistry()
	reg.CounterHandle("vcu.executions").Add(7)
	store := obs.NewSeriesStore(64)
	store.RecordGauge("fleet.queue_depth", 100*time.Millisecond, 3)
	rec := obs.NewRecorder(64)
	rec.Emit(100*time.Millisecond, &obs.EventKind{Component: "fleet", Severity: obs.SevInfo, Name: "boot"})
	sc := obs.Scope{Metrics: reg, Events: rec, Series: store}
	srv, err := NewServer(nil, nil, nil, nil, nil, sc, func() time.Duration { return time.Duration(now.Load()) })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, reg, now
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestCacheInvalidatesOncePerWatermark is the core cache contract: N
// requests at one watermark cost exactly one marshal, and a watermark
// advance invalidates exactly once.
func TestCacheInvalidatesOncePerWatermark(t *testing.T) {
	ts, srv, reg, now := newCachedServer(t)
	for i := 0; i < 10; i++ {
		if code, _, _ := get(t, ts.URL+"/api/v1/status"); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
	}
	st := srv.CacheStats()["status"]
	if st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("after 10 requests at one watermark: %+v", st)
	}

	now.Store(int64(2 * time.Second))
	for i := 0; i < 5; i++ {
		get(t, ts.URL+"/api/v1/status")
	}
	st = srv.CacheStats()["status"]
	if st.Misses != 2 || st.Hits != 13 {
		t.Fatalf("after watermark advance: %+v", st)
	}

	// The hit/miss counters are mirrored into libvdap.* telemetry.
	counters := reg.Snapshot().Counters
	if counters["libvdap.cache.hits"] < 13 || counters["libvdap.cache.misses"] < 2 {
		t.Fatalf("telemetry mirror = hits %v misses %v", counters["libvdap.cache.hits"], counters["libvdap.cache.misses"])
	}
}

// TestCachedMatchesUncachedBytes is the differential acceptance test: at
// every watermark, the cached payload must be byte-identical to the
// uncached path (a query string, even an empty-valued one, bypasses the
// cache but yields the same value).
func TestCachedMatchesUncachedBytes(t *testing.T) {
	ts, srv, _, now := newCachedServer(t)
	paths := map[string]string{
		"/api/v1/events":         "/api/v1/events?since=",
		"/api/v1/metrics/series": "/api/v1/metrics/series?since=",
		"/api/v1/status":         "/api/v1/status?nocache=1",
	}
	for wm := 1; wm <= 4; wm++ {
		now.Store(int64(time.Duration(wm) * time.Second))
		for cachedPath, uncachedPath := range paths {
			_, _, cold := get(t, ts.URL+cachedPath)  // builds the cache entry
			_, _, warm := get(t, ts.URL+cachedPath)  // served from cache
			_, _, raw := get(t, ts.URL+uncachedPath) // bypasses the cache
			if !bytes.Equal(cold, warm) {
				t.Fatalf("%s wm=%d: cold and warm cache bodies differ:\n%s\n%s", cachedPath, wm, cold, warm)
			}
			if !bytes.Equal(warm, raw) {
				t.Fatalf("%s wm=%d: cached body differs from uncached path %s:\n%s\n%s",
					cachedPath, wm, uncachedPath, warm, raw)
			}
		}
		// The metrics snapshot embeds the libvdap.cache.* counters
		// themselves, so an uncached re-marshal legitimately differs; its
		// cached body must still be byte-stable within a watermark.
		_, _, cold := get(t, ts.URL+"/api/v1/metrics")
		_, _, warm := get(t, ts.URL+"/api/v1/metrics")
		if !bytes.Equal(cold, warm) {
			t.Fatalf("/api/v1/metrics wm=%d: cached body not byte-stable:\n%s\n%s", wm, cold, warm)
		}
	}
	// Query-string requests must not have populated the caches beyond the
	// one build per watermark per endpoint.
	for _, name := range []string{"events", "series", "status", "metrics"} {
		if st := srv.CacheStats()[name]; st.Misses != 4 {
			t.Fatalf("cache %s misses = %d, want 4 (one per watermark)", name, st.Misses)
		}
	}
}

// TestCacheNoTornReads hammers a cached endpoint from many goroutines
// while the watermark advances: every response must be a complete, valid
// payload for some published watermark — old or new, never a mix.
func TestCacheNoTornReads(t *testing.T) {
	ts, _, _, now := newCachedServer(t)
	valid := map[float64]bool{}
	for wm := 1; wm <= 8; wm++ {
		valid[(time.Duration(wm) * time.Second).Seconds()] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for wm := 2; wm <= 8; wm++ {
			time.Sleep(2 * time.Millisecond)
			now.Store(int64(time.Duration(wm) * time.Second))
		}
		close(stop)
	}()
	var readers sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, body := get(t, ts.URL+"/api/v1/status")
				if code != http.StatusOK {
					continue // shed under backlog is legal
				}
				var doc struct {
					VirtualTime float64 `json:"virtualTime"`
				}
				if err := json.Unmarshal(body, &doc); err != nil {
					errs <- fmt.Errorf("torn body %q: %v", body, err)
					return
				}
				if !valid[doc.VirtualTime] {
					errs <- fmt.Errorf("impossible virtualTime %v", doc.VirtualTime)
					return
				}
			}
		}()
	}
	readers.Wait()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCacheBusySheds pins the bounded-backlog contract at the wmCache
// level: with maxPending=1 and a build in flight, the next miss is shed
// with errBusy without invoking the builder.
func TestCacheBusySheds(t *testing.T) {
	c := newWMCache(1)
	enter := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.get(time.Second, func() ([]byte, error) {
			close(enter)
			<-release
			return []byte("{}\n"), nil
		})
		done <- err
	}()
	<-enter
	if _, _, err := c.get(time.Second, func() ([]byte, error) {
		t.Error("builder invoked past the pending bound")
		return nil, nil
	}); err != errBusy {
		t.Fatalf("overflow get = %v, want errBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := c.stat()
	if st.Misses != 1 || st.Shed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The published entry serves hits normally after the shed.
	if e, hit, err := c.get(time.Second, nil); err != nil || !hit || string(e.body) != "{}\n" {
		t.Fatalf("post-shed get = %+v, %v, %v", e, hit, err)
	}
}
