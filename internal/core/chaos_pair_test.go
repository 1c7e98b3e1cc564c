package core

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/libvdap"
)

// The paired run is fixed work, not fixed time: every mode issues exactly
// chaosClients x chaosReqEach requests, so the success counts compare like
// with like on any machine.
const (
	chaosSeed     = 1
	chaosClients  = 8
	chaosReqEach  = 40
	chaosRequests = chaosClients * chaosReqEach
	chaosFrames   = 24
)

// e19RetryPolicy is the E19 "resilience on" client shape: enough attempts
// to outlast a run of byte-budgeted connections, backoff short enough that
// the fixed work finishes in seconds, hedged snapshot reads, and a breaker
// loose enough that chaos alone does not open it.
func e19RetryPolicy() libvdap.RetryPolicy {
	return libvdap.RetryPolicy{
		MaxAttempts:       8,
		BaseBackoff:       5 * time.Millisecond,
		MaxBackoff:        250 * time.Millisecond,
		PerRequestTimeout: 2 * time.Second,
		HedgeDelay:        250 * time.Millisecond,
		BreakerThreshold:  20,
		BreakerCooldown:   200 * time.Millisecond,
	}
}

// chaosModeOutcome is what one half of the pair observed.
type chaosModeOutcome struct {
	planDigest         string
	ok, failed         int64
	retries, retriedOK int64
	streamReconnects   int64
	proxy              faults.ChaosProxyStats
}

// runChaosMode runs one half of the pair: a fresh ticking platform behind a
// fresh chaos proxy on a freshly compiled plan, then the fixed work. With
// retry nil the clients are raw single-attempt GETs; otherwise each is a
// libvdap.Client under that policy, and a /api/v1/stream consumer rides the
// same proxy to exercise auto-reconnect.
func runChaosMode(t *testing.T, parallel int, retry *libvdap.RetryPolicy) chaosModeOutcome {
	t.Helper()
	p, err := New(DefaultConfig(t.TempDir()))
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

	plan, err := experiments.CompileChaosPlan(chaosSeed, parallel)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faults.NewChaosProxy(ts.Listener.Addr().String(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	stopTicks := startTickLoop(t, p, 2*time.Millisecond, 20*time.Millisecond)
	defer stopTicks()

	transport := &http.Transport{MaxIdleConnsPerHost: chaosClients + 1}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 5 * time.Second}

	paths := []string{"/api/v1/status", "/api/v1/metrics", "/api/v1/metrics/series", "/api/v1/events"}
	var ok, failed, retries, retriedOK, streamReconnects atomic.Int64
	var wg sync.WaitGroup

	if retry != nil {
		if c0 := plan.Conn(0); c0.TruncateAfter == 0 && c0.ResetAfter == 0 {
			t.Fatalf("seed %d gives connection 0 no byte budget; pick a seed that does", chaosSeed)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := libvdap.NewClient(proxy.URL(), hc)
			if err != nil {
				t.Errorf("stream client: %v", err)
				return
			}
			pol := *retry
			pol.Seed = chaosSeed ^ 0x73747265616d // "stream"
			// Chaos kills most connections and surviving that is the point:
			// a generous no-progress budget, no per-request deadline.
			pol.MaxAttempts = 4 * chaosFrames
			pol.PerRequestTimeout = -1
			cl.SetRetryPolicy(&pol)
			frames, err := cl.StreamFrames(0, chaosFrames)
			streamReconnects.Store(cl.Stats().Reconnects)
			if err != nil || len(frames) != chaosFrames {
				t.Errorf("stream consumer got %d/%d frames after %d reconnects: %v",
					len(frames), chaosFrames, streamReconnects.Load(), err)
				return
			}
			for i := 1; i < len(frames); i++ {
				if frames[i].WatermarkNs <= frames[i-1].WatermarkNs {
					t.Errorf("stream frame %d watermark %d not past %d: a reconnect re-read a frame",
						i, frames[i].WatermarkNs, frames[i-1].WatermarkNs)
				}
			}
		}()
		// The consumer dials before any load client, so it owns the plan's
		// connection 0, whose byte budget is smaller than chaosFrames
		// frames: at least one drop is certain, not a matter of accept order.
		deadline := time.Now().Add(5 * time.Second)
		for proxy.Stats().Conns == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var cl *libvdap.Client
			if retry != nil {
				var err error
				if cl, err = libvdap.NewClient(proxy.URL(), hc); err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
				// The breaker and the jitter RNG are per-client state.
				pol := *retry
				pol.Seed = chaosSeed ^ (int64(id)+1)<<20
				cl.SetRetryPolicy(&pol)
			}
			for i := 0; i < chaosReqEach; i++ {
				path := paths[(id+i)%len(paths)]
				var err error
				if cl != nil {
					_, err = cl.GetPath(path)
				} else {
					err = rawGet(hc, proxy.URL()+path)
				}
				if err != nil {
					failed.Add(1)
				} else {
					ok.Add(1)
				}
			}
			if cl != nil {
				st := cl.Stats()
				retries.Add(st.Retries)
				retriedOK.Add(st.RetriedOK)
			}
		}(c)
	}
	wg.Wait()

	return chaosModeOutcome{
		planDigest:       plan.Digest(),
		ok:               ok.Load(),
		failed:           failed.Load(),
		retries:          retries.Load(),
		retriedOK:        retriedOK.Load(),
		streamReconnects: streamReconnects.Load(),
		proxy:            proxy.Stats(),
	}
}

// rawGet is the resilience-off client: one attempt, and anything short of a
// whole 200 body is a failure.
func rawGet(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// TestChaosPairResilienceBeatsRaw is E19's claim as a property: the same
// compiled network-chaos plan, the same fixed work, run once with raw
// single-attempt clients and once with libvdap.Client under the E19 retry
// policy. The plan must bite the raw clients, the resilient clients must
// end with strictly more usable responses and must have got them by
// retrying, and the resilient stream consumer must finish its frames
// across the drops. Take the policy away from the "on" clients and the
// retry assertions fail.
func TestChaosPairResilienceBeatsRaw(t *testing.T) {
	policy := e19RetryPolicy()
	off := runChaosMode(t, 1, nil)
	on := runChaosMode(t, 4, &policy)
	t.Logf("off: %d ok, %d failed, proxy %+v", off.ok, off.failed, off.proxy)
	t.Logf("on:  %d ok, %d failed, %d retries, %d retried-ok, %d stream reconnects, proxy %+v",
		on.ok, on.failed, on.retries, on.retriedOK, on.streamReconnects, on.proxy)

	if off.planDigest != on.planDigest {
		t.Fatalf("chaos plans diverged across the pair: %s vs %s", off.planDigest, on.planDigest)
	}
	for _, m := range []chaosModeOutcome{off, on} {
		if m.ok+m.failed != chaosRequests {
			t.Fatalf("accounted requests = %d, want %d", m.ok+m.failed, chaosRequests)
		}
	}
	if off.failed < 1 {
		t.Fatal("the chaos plan never bit: every raw request succeeded")
	}
	if on.ok <= off.ok {
		t.Fatalf("resilience did not help: %d/%d ok with it, %d/%d without",
			on.ok, chaosRequests, off.ok, chaosRequests)
	}
	if on.retries <= 0 || on.retriedOK <= 0 {
		t.Fatalf("resilient clients never recovered a request by retrying: %d retries, %d retried-ok",
			on.retries, on.retriedOK)
	}
	if on.streamReconnects < 1 {
		t.Fatal("the stream consumer was never dropped: auto-reconnect went unexercised")
	}
}
