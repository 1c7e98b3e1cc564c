package libvdap

import (
	"context"
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
)

// newLifecycleServer builds a Server with observability attached and
// direct access to the Server value (unlike newObsServer) so tests can
// drive Shutdown and register panic routes.
func newLifecycleServer(t *testing.T) (*Server, *httptest.Server, *obs.Recorder, *atomic.Int64) {
	t.Helper()
	now := new(atomic.Int64)
	now.Store(int64(time.Second))
	rec := obs.NewRecorder(64)
	sc := obs.Scope{Metrics: telemetry.NewRegistry(), Events: rec, Series: obs.NewSeriesStore(64)}
	srv, err := NewServer(nil, nil, nil, nil, nil, sc, func() time.Duration { return time.Duration(now.Load()) })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, rec, now
}

func TestHealthEndpoints(t *testing.T) {
	srv, ts, _, _ := newLifecycleServer(t)
	for _, path := range []string{"/api/v1/healthz", "/api/v1/healthz", "/api/v1/readyz", "/api/v1/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d before drain, want 200", path, resp.StatusCode)
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Liveness stays green through a drain; readiness goes red.
	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while draining, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d while draining, want 503", resp.StatusCode)
	}
}

func TestShutdownShedsNewRequests(t *testing.T) {
	srv, ts, _, _ := newLifecycleServer(t)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() false after Shutdown")
	}
	resp, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d during drain, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain shed missing Retry-After")
	}
	if !resp.Close && !strings.EqualFold(resp.Header.Get("Connection"), "close") {
		t.Error("drain shed missing Connection: close")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestShutdownSendsFinalStreamFrame(t *testing.T) {
	srv, ts, rec, _ := newLifecycleServer(t)
	rec.Emit(500*time.Millisecond, "test", obs.SevInfo, "pre-drain event")

	// An unbounded stream (frames=0) only ends when the server drains.
	resp, err := http.Get(ts.URL + "/api/v1/stream?poll=0.005")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var first obs.Frame
	if err := dec.Decode(&first); err != nil {
		t.Fatalf("first frame: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	var last obs.Frame
	sawFinal := false
	for {
		var f obs.Frame
		if err := dec.Decode(&f); err != nil {
			if err != io.EOF {
				t.Fatalf("stream did not end cleanly: %v", err)
			}
			break
		}
		last = f
		sawFinal = f.Final
	}
	if !sawFinal {
		t.Fatalf("stream ended without a final frame (last=%+v)", last)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown returned %v with the stream drained", err)
	}
}

func TestShutdownTimesOutOnStuckHandler(t *testing.T) {
	srv, ts, _, _ := newLifecycleServer(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	srv.mux.HandleFunc("GET /api/v1/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	go http.Get(ts.URL + "/api/v1/stuck")
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil with a handler still in flight")
	}
	close(release)
	// The straggler finishes; a second drain now succeeds.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(ctx2); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	srv, ts, rec, _ := newLifecycleServer(t)
	srv.mux.HandleFunc("GET /api/v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	resp, err := http.Get(ts.URL + "/api/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic handler returned %d, want 500", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("panic response is not JSON: %v", err)
	}
	if !strings.Contains(apiErr.Error, "kaboom") {
		t.Fatalf("panic response %q does not name the panic", apiErr.Error)
	}
	if got := srv.panicsCtr.Value(); got != 1 {
		t.Fatalf("libvdap.panics = %v, want 1", got)
	}
	events := rec.EventsSince(-1, "libvdap", obs.SevError)
	found := false
	for _, ev := range events {
		if ev.Name == "handler panic" {
			found = true
			for _, f := range ev.Fields {
				if f.Key == "stack" && f.Value() == "" {
					t.Error("panic event has an empty stack field")
				}
			}
		}
	}
	if !found {
		t.Fatal("panic not filed into the flight recorder")
	}
	// The server keeps serving after a panic.
	resp2, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after a panic, want 200", resp2.StatusCode)
	}
}
