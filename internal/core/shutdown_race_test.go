package core

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestShutdownUnderConcurrentLoad is the graceful-lifecycle -race test:
// Server.Shutdown fires while the tick loop is advancing, a client fleet
// is mid-request, and an unbounded /api/v1/stream consumer is attached. The
// drain contract under test: every admitted request finishes with a
// complete response (rejected ones get a clean 503, never a dropped
// connection), and the stream ends with a marked final frame and a clean
// EOF rather than a severed socket.
func TestShutdownUnderConcurrentLoad(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.StartCollection(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := p.StartSampling(0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.API())
	defer ts.Close()

	const (
		clients  = 32
		reqEach  = 30
		tickStep = 20 * time.Millisecond
	)

	stopTicks := startTickLoop(t, p, 2*time.Millisecond, tickStep)

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1},
		Timeout:   30 * time.Second,
	}

	// The stream consumer attaches before the drain and reads to EOF. A
	// fast poll keeps it inside the poll select when Shutdown fires.
	var framesSeen, finalSeen atomic.Int64
	var streamErr error
	var streamWG sync.WaitGroup
	streamWG.Add(1)
	go func() {
		defer streamWG.Done()
		resp, err := client.Get(ts.URL + "/api/v1/stream?poll=0.005")
		if err != nil {
			streamErr = err
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var f obs.Frame
			if err := dec.Decode(&f); err != nil {
				if !errors.Is(err, io.EOF) {
					streamErr = err
				}
				return
			}
			framesSeen.Add(1)
			if f.Final {
				finalSeen.Add(1)
			}
		}
	}()
	// Make sure the stream is live before the drain starts.
	deadline := time.Now().Add(5 * time.Second)
	for framesSeen.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if framesSeen.Load() == 0 {
		t.Fatal("stream consumer never received a frame")
	}

	paths := []string{
		"/api/v1/status",
		"/api/v1/metrics",
		"/api/v1/metrics/series",
		"/api/v1/events",
		"/api/v1/resources",
		"/api/v1/services",
	}
	var completed, drained atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < reqEach; i++ {
				resp, err := client.Get(ts.URL + paths[(id+i)%len(paths)])
				if err != nil {
					// A dropped in-flight response: the drain contract says
					// this must never happen — rejects are clean 503s.
					t.Errorf("client %d: dropped response: %v", id, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("client %d: truncated body: %v", id, err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusServiceUnavailable:
					drained.Add(1)
				case resp.StatusCode >= 500:
					t.Errorf("client %d: status %d", id, resp.StatusCode)
					return
				default:
					completed.Add(1)
				}
			}
		}(c)
	}

	// Fire the drain while the fleet and the stream are both mid-flight:
	// wait for a quarter of the fleet's requests to land, so plenty have
	// completed and plenty remain to observe the draining 503.
	trigger := int64(clients * reqEach / 4)
	deadline = time.Now().Add(5 * time.Second)
	for completed.Load() < trigger && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Server().Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	wg.Wait()
	streamWG.Wait()
	stopTicks()

	if streamErr != nil {
		t.Fatalf("stream did not end cleanly: %v", streamErr)
	}
	if finalSeen.Load() == 0 {
		t.Fatalf("stream never saw a final frame (%d frames)", framesSeen.Load())
	}
	if completed.Load() == 0 {
		t.Fatal("no request completed before the drain")
	}
	if drained.Load() == 0 {
		t.Fatal("no request observed the draining 503 — shutdown fired too late to test anything")
	}
	if got := completed.Load() + drained.Load(); got != clients*reqEach {
		t.Fatalf("accounted responses = %d, want %d", got, clients*reqEach)
	}
	// Post-drain requests keep getting clean 503s, not connection errors.
	resp, err := client.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatalf("post-drain request dropped: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", resp.StatusCode)
	}
}
