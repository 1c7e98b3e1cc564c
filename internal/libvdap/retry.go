package libvdap

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/offload"
	"repro/internal/sim"
)

// RetryPolicy makes a Client survive the network chaos an edge deployment
// lives on: bounded exponential backoff with decorrelated jitter, honoring
// the server's Retry-After on 503 sheds, retrying only idempotent GETs by
// default, per-request timeouts, a client-side circuit breaker (the same
// state machine the offload tier uses, clocked on wall time), and hedged
// reads for the snapshot endpoints. The zero value of every field picks a
// sensible default; install with Client.SetRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per request, first attempt included
	// (default 4). It also bounds consecutive no-progress stream
	// reconnects.
	MaxAttempts int
	// BaseBackoff seeds the decorrelated-jitter backoff (default 25ms);
	// MaxBackoff caps it (default 1s). Each retry sleeps
	// min(MaxBackoff, uniform(BaseBackoff, 3*previous)), and never less
	// than a 503's Retry-After.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PerRequestTimeout bounds each attempt's full round trip (default 5s;
	// negative disables).
	PerRequestTimeout time.Duration
	// RetryNonIdempotent also retries POSTs. Default off: only idempotent
	// GETs are safely repeatable.
	RetryNonIdempotent bool
	// HedgeDelay, when positive, launches a second identical request for
	// the snapshot endpoints (status, metrics, series, events) if the
	// first has not resolved in time; the first usable response wins.
	HedgeDelay time.Duration
	// BreakerThreshold consecutive failures open the client breaker
	// (default 8); while open, calls fast-fail for BreakerCooldown of wall
	// time (default 500ms), then a single probe decides.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed keys the jitter RNG so paired benchmark runs draw identical
	// backoff sequences.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.PerRequestTimeout == 0 {
		p.PerRequestTimeout = 5 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 8
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 500 * time.Millisecond
	}
	return p
}

// retryState is the mutable half of an installed policy: the jitter RNG
// and the breaker, both shared by every goroutine using the Client and so
// guarded by one mutex (the critical sections are a few loads and adds).
// The breaker reuses offload.Breaker — the closed/open/half-open machine
// proven on the offload path — clocked on wall time since installation.
type retryState struct {
	policy RetryPolicy

	mu      sync.Mutex
	rng     *sim.RNG
	breaker *offload.Breaker
	epoch   time.Time
}

func (rs *retryState) now() time.Duration { return time.Since(rs.epoch) }

// allow asks the breaker for admission at the current wall time.
func (rs *retryState) allow() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.breaker.Allow(rs.now())
}

func (rs *retryState) recordSuccess() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.breaker.RecordSuccess(rs.now())
}

func (rs *retryState) recordFailure() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.breaker.RecordFailure(rs.now())
}

// backoff draws the next decorrelated-jitter sleep from prev, floored at
// the server's Retry-After hint when one arrived.
func (rs *retryState) backoff(prev, retryAfter time.Duration) time.Duration {
	p := rs.policy
	rs.mu.Lock()
	d := time.Duration(rs.rng.Uniform(float64(p.BaseBackoff), float64(3*prev)))
	rs.mu.Unlock()
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if d < p.BaseBackoff {
		d = p.BaseBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// SetRetryPolicy installs (or, with nil, removes) the client's resilience
// policy. Install before sharing the client across goroutines.
func (c *Client) SetRetryPolicy(p *RetryPolicy) {
	if p == nil {
		c.retry = nil
		return
	}
	pol := p.withDefaults()
	c.retry = &retryState{
		policy:  pol,
		rng:     sim.NewStream(pol.Seed, 0x7e747279), // "retry"
		breaker: offload.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown),
		epoch:   time.Now(),
	}
}

// RetryPolicyInstalled reports whether a resilience policy is active.
func (c *Client) RetryPolicyInstalled() bool { return c.retry != nil }

// ClientStats aggregates the client's lifetime resilience counters.
type ClientStats struct {
	Retries          int64 `json:"retries"`          // attempts beyond each request's first
	Sheds            int64 `json:"sheds"`            // 503 responses observed (including retried ones)
	RetriedOK        int64 `json:"retriedOk"`        // requests that succeeded after >=1 retry
	Hedges           int64 `json:"hedges"`           // hedge requests launched
	HedgeWins        int64 `json:"hedgeWins"`        // hedges that beat the primary
	Reconnects       int64 `json:"reconnects"`       // stream re-dials resuming from a watermark
	BreakerFastFails int64 `json:"breakerFastFails"` // calls rejected by the open breaker
}

// clientCounters is the atomic backing store for ClientStats.
type clientCounters struct {
	retries, sheds, retriedOK    atomic.Int64
	hedges, hedgeWins            atomic.Int64
	reconnects, breakerFastFails atomic.Int64
}

// Stats snapshots the client's resilience counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:          c.counters.retries.Load(),
		Sheds:            c.counters.sheds.Load(),
		RetriedOK:        c.counters.retriedOK.Load(),
		Hedges:           c.counters.hedges.Load(),
		HedgeWins:        c.counters.hedgeWins.Load(),
		Reconnects:       c.counters.reconnects.Load(),
		BreakerFastFails: c.counters.breakerFastFails.Load(),
	}
}

// CallStats itemizes one call's resilience activity: what it took to get
// this one answer, where ClientStats is the running total over all calls.
type CallStats struct {
	Attempts    int  // round trips issued (>=1 unless the breaker fast-failed)
	Sheds       int  // 503 responses observed across attempts
	FinalStatus int  // HTTP status of the winning/terminal attempt (0 on transport error or fast-fail)
	Hedged      bool // a hedge request was launched
	HedgeWon    bool // ...and it beat the primary
	Reconnects  int  // stream re-dials
	BreakerOpen bool // the call fast-failed on the open breaker
}

// ErrBreakerOpen is returned (wrapped) when the client breaker fast-fails
// a call without touching the network.
var ErrBreakerOpen = fmt.Errorf("libvdap: client circuit breaker open")

// snapshotPaths are the four cached snapshot endpoints eligible for hedged
// reads: cheap, idempotent, watermark-cached server-side, so a duplicate
// costs one cache hit.
var snapshotPaths = map[string]bool{
	"/api/v1/status":         true,
	"/api/v1/metrics":        true,
	"/api/v1/metrics/series": true,
	"/api/v1/events":         true,
}

// hedgeEligible reports whether a request path (query string ignored) may
// be hedged under the installed policy.
func hedgeEligible(path string) bool {
	path, _, _ = strings.Cut(path, "?")
	return snapshotPaths[path]
}

// attemptResult is one HTTP round trip, body fully read.
type attemptResult struct {
	status     int
	body       []byte
	retryAfter time.Duration
	err        error
	hedge      bool // this result came from the hedge leg
}

// retryable classifies an attempt outcome: transport errors, 503 sheds,
// and other 5xx responses are worth retrying; everything else is terminal
// (2xx/3xx success, 4xx caller error).
func (r attemptResult) retryable() bool {
	return r.err != nil || r.status == http.StatusServiceUnavailable || r.status >= 500
}

// attempt runs one HTTP round trip and reads the full body.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, hedge bool) attemptResult {
	var reader io.Reader
	if payload != nil {
		reader = newByteReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return attemptResult{err: fmt.Errorf("build request: %w", err), hedge: hedge}
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("X-VDAP-Token", c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return attemptResult{err: fmt.Errorf("%s %s: %w", method, path, err), hedge: hedge}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return attemptResult{err: fmt.Errorf("%s %s: read body: %w", method, path, err), hedge: hedge}
	}
	res := attemptResult{status: resp.StatusCode, body: body, hedge: hedge}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.ParseFloat(ra, 64); err == nil && secs > 0 {
			res.retryAfter = time.Duration(secs * float64(time.Second))
		}
	}
	return res
}

// attemptCtx wraps the per-request timeout around one attempt.
func (c *Client) attemptCtx(method, path string, payload []byte, hedge bool) (attemptResult, context.CancelFunc) {
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if rs := c.retry; rs != nil && rs.policy.PerRequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, rs.policy.PerRequestTimeout)
	}
	return c.attempt(ctx, method, path, payload, hedge), cancel
}

// hedgedAttempt races a primary against a delayed hedge and returns the
// first usable (non-retryable) result, or the primary's failure when both
// legs fail. The losing leg is cancelled.
func (c *Client) hedgedAttempt(method, path string, payload []byte, cs *CallStats) attemptResult {
	rs := c.retry
	results := make(chan attemptResult, 2)
	launch := func(hedge bool) context.CancelFunc {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if rs.policy.PerRequestTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, rs.policy.PerRequestTimeout)
		}
		go func() { results <- c.attempt(ctx, method, path, payload, hedge) }()
		return cancel
	}
	cancelPrimary := launch(false)
	defer cancelPrimary()
	timer := time.NewTimer(rs.policy.HedgeDelay)
	defer timer.Stop()

	var first attemptResult
	select {
	case first = <-results:
		return first // primary resolved before the hedge trigger
	case <-timer.C:
	}
	c.counters.hedges.Add(1)
	if cs != nil {
		cs.Hedged = true
	}
	cancelHedge := launch(true)
	defer cancelHedge()

	first = <-results
	if !first.retryable() {
		if first.hedge {
			c.counters.hedgeWins.Add(1)
			if cs != nil {
				cs.HedgeWon = true
			}
		}
		return first
	}
	// First leg failed; the slower leg may still save the call.
	second := <-results
	if !second.retryable() {
		if second.hedge {
			c.counters.hedgeWins.Add(1)
			if cs != nil {
				cs.HedgeWon = true
			}
		}
		return second
	}
	if !first.hedge {
		return first
	}
	return second
}

// call is the resilient request core behind every Client method: marshal
// once, attempt with retry/backoff/hedging per the installed policy, then
// decode the winning body into out.
func (c *Client) call(method, path string, body, out any, cs *CallStats) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = marshalBody(body); err != nil {
			return fmt.Errorf("marshal request: %w", err)
		}
	}
	rs := c.retry
	if rs == nil {
		res, cancel := c.attemptCtx(method, path, payload, false)
		cancel()
		if cs != nil {
			cs.Attempts = 1
			cs.FinalStatus = res.status
			if res.status == http.StatusServiceUnavailable {
				cs.Sheds++
			}
		}
		return finishCall(method, path, res, out)
	}

	if !rs.allow() {
		c.counters.breakerFastFails.Add(1)
		if cs != nil {
			cs.BreakerOpen = true
		}
		return fmt.Errorf("%s %s: %w", method, path, ErrBreakerOpen)
	}
	idempotent := method == http.MethodGet || rs.policy.RetryNonIdempotent
	hedging := rs.policy.HedgeDelay > 0 && method == http.MethodGet && hedgeEligible(path)
	prevSleep := rs.policy.BaseBackoff
	var res attemptResult
	for attempt := 1; ; attempt++ {
		if hedging {
			res = c.hedgedAttempt(method, path, payload, cs)
		} else {
			var cancel context.CancelFunc
			res, cancel = c.attemptCtx(method, path, payload, false)
			cancel()
		}
		if cs != nil {
			cs.Attempts++
			cs.FinalStatus = res.status
			if res.status == http.StatusServiceUnavailable {
				cs.Sheds++
			}
		}
		if res.status == http.StatusServiceUnavailable {
			c.counters.sheds.Add(1)
		}
		if !res.retryable() {
			rs.recordSuccess()
			if attempt > 1 {
				c.counters.retriedOK.Add(1)
			}
			return finishCall(method, path, res, out)
		}
		rs.recordFailure()
		if !idempotent || attempt >= rs.policy.MaxAttempts {
			return finishCall(method, path, res, out)
		}
		if !rs.allow() {
			// The breaker opened mid-sequence; stop hammering.
			c.counters.breakerFastFails.Add(1)
			if cs != nil {
				cs.BreakerOpen = true
			}
			return fmt.Errorf("%s %s: %w", method, path, ErrBreakerOpen)
		}
		c.counters.retries.Add(1)
		sleep := rs.backoff(prevSleep, res.retryAfter)
		prevSleep = sleep
		time.Sleep(sleep)
	}
}

// GetPath issues a resilient GET for an arbitrary API path, discarding the
// body and reporting what the call took.
func (c *Client) GetPath(path string) (CallStats, error) {
	var cs CallStats
	err := c.call(http.MethodGet, path, nil, nil, &cs)
	return cs, err
}
