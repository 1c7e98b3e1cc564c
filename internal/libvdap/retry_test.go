package libvdap

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fastPolicy keeps retry tests quick: millisecond backoffs, generous
// breaker so unrelated tests never trip it.
func fastPolicy() *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts:      5,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 100,
		BreakerCooldown:  time.Minute,
		Seed:             1,
	}
}

func newRetryClient(t *testing.T, srv *httptest.Server, p *RetryPolicy) *Client {
	t.Helper()
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(p)
	return c
}

func TestClientRetries503UntilSuccess(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0.001")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(apiError{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"ok": "yes"})
	}))
	defer srv.Close()

	c := newRetryClient(t, srv, fastPolicy())
	cs, err := c.GetPath("/api/v1/status")
	if err != nil {
		t.Fatalf("retried GET failed: %v", err)
	}
	if cs.Attempts != 3 || cs.Sheds != 2 {
		t.Fatalf("CallStats = %+v, want 3 attempts / 2 sheds", cs)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Sheds != 2 || st.RetriedOK != 1 {
		t.Fatalf("ClientStats = %+v", st)
	}
}

func TestClientDoesNotRetryNonIdempotent(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(apiError{Error: "overloaded"})
	}))
	defer srv.Close()

	c := newRetryClient(t, srv, fastPolicy())
	if err := c.Publish("svc", "topic", []byte("x")); err == nil {
		t.Fatal("want error from 503")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("POST was attempted %d times, want 1", n)
	}
}

func TestClientRetriesPOSTWhenOptedIn(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(apiError{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	}))
	defer srv.Close()

	p := fastPolicy()
	p.RetryNonIdempotent = true
	c := newRetryClient(t, srv, p)
	if err := c.Publish("svc", "topic", []byte("x")); err != nil {
		t.Fatalf("opted-in POST retry failed: %v", err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("POST attempted %d times, want 2", n)
	}
}

func TestClientPreserves4xxErrorFormat(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(apiError{Error: "no such model"})
	}))
	defer srv.Close()

	c := newRetryClient(t, srv, fastPolicy())
	_, err := c.Model("ghost")
	if err == nil {
		t.Fatal("want 404 error")
	}
	want := `GET /api/v1/models/ghost: no such model (HTTP 404)`
	if err.Error() != want {
		t.Fatalf("error format changed:\n got: %s\nwant: %s", err, want)
	}
}

func TestClientBreakerFastFails(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(apiError{Error: "boom"})
	}))
	defer srv.Close()

	c := newRetryClient(t, srv, &RetryPolicy{
		MaxAttempts:      1,
		BaseBackoff:      time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		Seed:             1,
	})
	for i := 0; i < 2; i++ {
		if _, err := c.GetPath("/api/v1/status"); err == nil {
			t.Fatal("want 500 error")
		}
	}
	wire := hits.Load()
	cs, err := c.GetPath("/api/v1/status")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if !cs.BreakerOpen {
		t.Fatalf("CallStats = %+v, want BreakerOpen", cs)
	}
	if hits.Load() != wire {
		t.Fatal("fast-fail still touched the network")
	}
	if st := c.Stats(); st.BreakerFastFails != 1 {
		t.Fatalf("ClientStats = %+v, want 1 breaker fast-fail", st)
	}
}

func TestClientHedgedReadWins(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // slow primary
		}
		json.NewEncoder(w).Encode(map[string]string{"ok": "yes"})
	}))
	defer srv.Close()

	p := fastPolicy()
	p.HedgeDelay = 10 * time.Millisecond
	c := newRetryClient(t, srv, p)
	start := time.Now()
	cs, err := c.GetPath("/api/v1/status")
	if err != nil {
		t.Fatalf("hedged GET failed: %v", err)
	}
	if !cs.Hedged || !cs.HedgeWon {
		t.Fatalf("CallStats = %+v, want hedge launched and won", cs)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("hedge did not shortcut the slow primary (%v)", elapsed)
	}
	if st := c.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("ClientStats = %+v", st)
	}
}

func TestClientHedgeOnlySnapshotPaths(t *testing.T) {
	for path, want := range map[string]bool{
		"/api/v1/status":            true,
		"/api/v1/metrics":           true,
		"/api/v1/metrics/series":    true,
		"/api/v1/events?since=3":    true,
		"/v1/status":                false,
		"/api/v1/data/query?from=0": false,
		"/api/v1/models":            false,
		"/api/v1/stream":            false,
	} {
		if got := hedgeEligible(path); got != want {
			t.Errorf("hedgeEligible(%q) = %v, want %v", path, got, want)
		}
	}
}

// streamHandler serves exactly one frame per connection then closes,
// forcing a resilient client to reconnect with an advanced watermark.
func oneFramePerConnStream(t *testing.T) http.HandlerFunc {
	t.Helper()
	return func(w http.ResponseWriter, r *http.Request) {
		since := -time.Second
		if ss := r.URL.Query().Get("since"); ss != "" {
			sec, err := strconv.ParseFloat(ss, 64)
			if err != nil {
				t.Errorf("bad since %q", ss)
			}
			since = time.Duration(sec * float64(time.Second))
		}
		next := since + time.Second
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		json.NewEncoder(w).Encode(obs.Frame{WatermarkNs: int64(next)})
	}
}

func TestStreamFramesReconnectsFromWatermark(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/stream", oneFramePerConnStream(t))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newRetryClient(t, srv, fastPolicy())
	frames, err := c.StreamFrames(0, 3)
	if err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3", len(frames))
	}
	for i, f := range frames {
		if want := int64((i + 1)) * int64(time.Second); f.WatermarkNs != want {
			t.Fatalf("frame %d watermark %d, want %d (resume lost the cursor)", i, f.WatermarkNs, want)
		}
	}
	if st := c.Stats(); st.Reconnects != 2 {
		t.Fatalf("ClientStats = %+v, want 2 reconnects", st)
	}
}

func TestStreamFramesStopsOnFinalFrame(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.Encode(obs.Frame{WatermarkNs: 1})
		enc.Encode(obs.Frame{WatermarkNs: 2, Final: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newRetryClient(t, srv, fastPolicy())
	frames, err := c.StreamFrames(-1, 10)
	if err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if len(frames) != 2 || !frames[1].Final {
		t.Fatalf("got %d frames (final=%v), want 2 ending in a final frame", len(frames), frames[len(frames)-1].Final)
	}
	if st := c.Stats(); st.Reconnects != 0 {
		t.Fatalf("reconnected %d times past a final frame", st.Reconnects)
	}
}

func TestStreamFramesBoundedWithoutProgress(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		// Close immediately: zero frames, ever.
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p := fastPolicy()
	p.MaxAttempts = 3
	c := newRetryClient(t, srv, p)
	frames, err := c.StreamFrames(-1, 5)
	if err == nil {
		t.Fatal("want error after exhausting no-progress reconnects")
	}
	if len(frames) != 0 {
		t.Fatalf("got %d frames from an empty stream", len(frames))
	}
	if st := c.Stats(); st.Reconnects != 2 {
		t.Fatalf("ClientStats = %+v, want exactly MaxAttempts-1 reconnects", st)
	}
}

func TestBackoffDecorrelatedJitterBounds(t *testing.T) {
	c := &Client{}
	c.SetRetryPolicy(&RetryPolicy{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Seed:        7,
	})
	rs := c.retry
	prev := rs.policy.BaseBackoff
	for i := 0; i < 200; i++ {
		d := rs.backoff(prev, 0)
		if d < rs.policy.BaseBackoff || d > rs.policy.MaxBackoff {
			t.Fatalf("backoff %v outside [%v, %v]", d, rs.policy.BaseBackoff, rs.policy.MaxBackoff)
		}
		prev = d
	}
	// Retry-After dominates when larger than the drawn jitter.
	if d := rs.backoff(prev, 500*time.Millisecond); d != 500*time.Millisecond {
		t.Fatalf("backoff %v ignored Retry-After", d)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		c := &Client{}
		c.SetRetryPolicy(&RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: time.Second, Seed: seed})
		out := make([]time.Duration, 8)
		prev := c.retry.policy.BaseBackoff
		for i := range out {
			out[i] = c.retry.backoff(prev, 0)
			prev = out[i]
		}
		return out
	}
	a, b := draw(3), draw(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	if other := draw(4); fmt.Sprint(other) == fmt.Sprint(a) {
		t.Fatal("different seeds drew identical backoff sequences")
	}
}
