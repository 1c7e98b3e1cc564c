package core

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestServeConcurrentWithTickLoop is the PR's -race acceptance test: a
// platform advancing on a tick loop (via AdvanceTo, the run-lock path)
// while 64 parallel clients hammer every handler class — lock-free
// observability reads, shared-lock simulation reads, and exclusive-lock
// mutations. Before the run-lock contract, vdapd's tick loop mutated the
// platform while handlers read it; `go test -race` on this test was the
// reproducer.
func TestServeConcurrentWithTickLoop(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.StartCollection(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := p.StartSampling(0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.API())
	defer ts.Close()

	const (
		clients  = 64
		reqEach  = 20
		tickStep = 20 * time.Millisecond
	)

	stopTicks := startTickLoop(t, p, 2*time.Millisecond, tickStep)

	paths := []string{
		// Lock-free observability and cached snapshots.
		"/api/v1/status",
		"/api/v1/metrics",
		"/api/v1/metrics/series",
		"/api/v1/events",
		"/api/v1/trace",
		"/api/v1/stream?frames=1",
		// Shared-lock simulation reads.
		"/api/v1/resources",
		"/api/v1/models",
		"/api/v1/sharing/topics",
		"/api/v1/services",
		// Exclusive-lock simulation mutations.
		"/api/v1/data/query?source=camera&from=0&to=1000",
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		Timeout:   30 * time.Second,
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < reqEach; i++ {
				path := paths[(id+i)%len(paths)]
				var resp *http.Response
				var err error
				if i%7 == 3 {
					// An exclusive-lock write: upload one record.
					body := fmt.Sprintf(`{"source":"camera","x":%d,"y":0,"payload":"YQ=="}`, id)
					resp, err = client.Post(ts.URL+"/api/v1/data/upload", "application/json",
						bytes.NewReader([]byte(body)))
				} else {
					resp, err = client.Get(ts.URL + path)
				}
				if err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// 503 is legal under overload; 5xx otherwise is not.
				if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("client %d %s: status %d", id, path, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	stopTicks()

	if got := p.Engine().Now(); got == 0 {
		t.Fatal("tick loop never advanced virtual time")
	}
	// The cached endpoints must have been exercised.
	total := int64(0)
	for _, st := range p.Server().CacheStats() {
		total += st.Hits + st.Misses
	}
	if total == 0 {
		t.Fatal("response caches never consulted")
	}
}

// startTickLoop advances p by step of virtual time every wall of wall time
// the way vdapd's tick loop does — through AdvanceTo, the run-lock path —
// until the returned stop is called; stop returns once the goroutine has
// exited. An AdvanceTo error fails the test and ends the loop.
func startTickLoop(t *testing.T, p *Platform, wall, step time.Duration) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(wall)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if err := p.AdvanceTo(p.Engine().Now() + step); err != nil {
					t.Errorf("AdvanceTo: %v", err)
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
