package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// NetChaosConfig parameterizes a compiled network-chaos plan: one fault
// recipe per TCP connection, drawn from a seeded RNG substream keyed by
// connection index. Like PlanConfig schedules, the compiled plan is a pure
// function of (config, seed): two compilations with the same inputs are
// byte-identical, so a paired resilience-on/off benchmark can subject both
// runs to exactly the same network weather.
type NetChaosConfig struct {
	// Seed keys every connection's RNG substream (sim.NewStream(Seed, conn)).
	Seed int64
	// Conns is how many per-connection plans to compile; accepted
	// connections past the end wrap around (conn % Conns).
	Conns int

	// A connection drawn for a reset is torn down with a TCP RST after
	// forwarding a uniform draw in [ResetMinBytes, ResetMaxBytes) of
	// response bytes — the mid-frame connection loss of a vehicular link.
	ResetMinBytes int64
	ResetMaxBytes int64

	// A connection drawn for truncation has its response stream cut with a
	// clean FIN after a uniform draw in [TruncateMinBytes, TruncateMaxBytes)
	// of response bytes, truncating whatever frame is in flight.
	TruncateMinBytes int64
	TruncateMaxBytes int64
}

// The E19 chaos recipe: nearly every connection has a finite byte budget
// before it dies (reset or truncation, 45% each and independent), so a
// client without retries loses a steady fraction of requests; a fifth hold
// their first response bytes for a uniform draw in [latencyMin, latencyMax),
// and 8% sit on a freshly accepted connection for up to acceptStallMax
// before relaying anything — the dead-zone dial that only a client timeout
// escapes — which exercise hedging and per-request timeouts.
const (
	latencyProb     = 0.20
	latencyMin      = 10 * time.Millisecond
	latencyMax      = 120 * time.Millisecond
	resetProb       = 0.45
	truncateProb    = 0.45
	acceptStallProb = 0.08
	acceptStallMax  = time.Second
)

// ConnPlan is one connection's compiled fault recipe. Zero byte budgets and
// durations mean the fault family is absent on this connection.
type ConnPlan struct {
	Conn          int           `json:"conn"`
	Latency       time.Duration `json:"latency"`       // head-of-line delay before first response bytes
	ResetAfter    int64         `json:"resetAfter"`    // response bytes before a RST; 0 = never
	TruncateAfter int64         `json:"truncateAfter"` // response bytes before a FIN; 0 = never
	AcceptStall   time.Duration `json:"acceptStall"`   // relay delay after accept; 0 = none
}

// compileConnPlan draws one connection's recipe. The draw order (latency,
// reset, truncation, stall — a Bernoulli gate then the magnitude, always
// consumed) is part of the plan format: changing it changes every digest.
func compileConnPlan(cfg NetChaosConfig, conn int) ConnPlan {
	rng := sim.NewStream(cfg.Seed, uint64(conn))
	p := ConnPlan{Conn: conn}
	if rng.Bernoulli(latencyProb) {
		p.Latency = time.Duration(rng.Uniform(float64(latencyMin), float64(latencyMax)))
	} else {
		rng.Float64()
	}
	if rng.Bernoulli(resetProb) {
		p.ResetAfter = int64(rng.Uniform(float64(cfg.ResetMinBytes), float64(cfg.ResetMaxBytes)))
	} else {
		rng.Float64()
	}
	if rng.Bernoulli(truncateProb) {
		p.TruncateAfter = int64(rng.Uniform(float64(cfg.TruncateMinBytes), float64(cfg.TruncateMaxBytes)))
	} else {
		rng.Float64()
	}
	if rng.Bernoulli(acceptStallProb) {
		p.AcceptStall = time.Duration(rng.Uniform(0, float64(acceptStallMax)))
	} else {
		rng.Float64()
	}
	return p
}

// NetPlan is a compiled connection-chaos schedule.
type NetPlan struct {
	cfg   NetChaosConfig
	conns []ConnPlan
}

// CompileNetPlan compiles cfg.Conns per-connection recipes across a pool of
// `parallel` workers (<=0 means 1). Each connection's plan comes from its
// own sim.NewStream substream and lands at its own index, so the compiled
// plan — and therefore Digest — is byte-identical at any parallelism.
func CompileNetPlan(cfg NetChaosConfig, parallel int) (*NetPlan, error) {
	if cfg.Conns < 1 {
		return nil, fmt.Errorf("faults: netchaos needs at least one connection, got %d", cfg.Conns)
	}
	if cfg.ResetMaxBytes <= cfg.ResetMinBytes {
		cfg.ResetMaxBytes = cfg.ResetMinBytes + 1
	}
	if cfg.TruncateMaxBytes <= cfg.TruncateMinBytes {
		cfg.TruncateMaxBytes = cfg.TruncateMinBytes + 1
	}
	if parallel <= 0 {
		parallel = 1
	}
	plan := &NetPlan{cfg: cfg, conns: make([]ConnPlan, cfg.Conns)}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Conns {
					return
				}
				plan.conns[i] = compileConnPlan(cfg, i)
			}
		}()
	}
	wg.Wait()
	return plan, nil
}

// Config returns the compiled configuration (empty byte ranges widened).
func (p *NetPlan) Config() NetChaosConfig { return p.cfg }

// Conns returns how many per-connection recipes were compiled.
func (p *NetPlan) Conns() int { return len(p.conns) }

// Conn returns the recipe for the i-th accepted connection (wrapping past
// the compiled count).
func (p *NetPlan) Conn(i int) ConnPlan {
	if len(p.conns) == 0 {
		return ConnPlan{Conn: i}
	}
	return p.conns[i%len(p.conns)]
}

// Describe renders the plan canonically, one line per connection — the
// digest input and the human-readable netchaos plan format.
func (p *NetPlan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netchaos seed=%d conns=%d\n", p.cfg.Seed, len(p.conns))
	for _, c := range p.conns {
		fmt.Fprintf(&b, "conn %5d latency=%v reset=%dB truncate=%dB stall=%v\n",
			c.Conn, c.Latency, c.ResetAfter, c.TruncateAfter, c.AcceptStall)
	}
	return b.String()
}

// Digest returns the SHA-256 of the canonical plan rendering. Equal digests
// mean byte-identical chaos plans — the pairing check for E19's on/off runs
// and the `make determinism` netchaos step.
func (p *NetPlan) Digest() string {
	sum := sha256.Sum256([]byte(p.Describe()))
	return hex.EncodeToString(sum[:])
}

// ChaosProxyStats counts what a proxy actually did to live traffic. The
// counts are wall-clock-dependent (which recipes fire depends on accept
// order and response sizes); only the plan itself is deterministic.
type ChaosProxyStats struct {
	Conns     int64 `json:"conns"`
	Resets    int64 `json:"resets"`
	Truncates int64 `json:"truncates"`
	Stalls    int64 `json:"stalls"`
	Delayed   int64 `json:"delayed"`
	BytesUp   int64 `json:"bytesUp"`
	BytesDown int64 `json:"bytesDown"`
}

// ChaosProxy is an in-process TCP proxy that subjects every connection
// between a client fleet and a backend to its compiled ConnPlan: accept
// stalls, head-of-line latency, byte-budgeted RSTs and truncations. It
// never inspects bytes — HTTP requests, chunked streams, and gzip bodies
// all break the same way a real flaky link breaks them.
type ChaosProxy struct {
	ln      net.Listener
	backend string
	plan    *NetPlan

	next    atomic.Int64
	closed  atomic.Bool
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup

	stats struct {
		conns, resets, truncates, stalls, delayed atomic.Int64
		bytesUp, bytesDown                        atomic.Int64
	}
}

// NewChaosProxy starts a proxy on a loopback port in front of backend
// (host:port). Close releases the listener and every live connection.
func NewChaosProxy(backend string, plan *NetPlan) (*ChaosProxy, error) {
	if backend == "" {
		return nil, fmt.Errorf("faults: empty backend address")
	}
	if plan == nil {
		return nil, fmt.Errorf("faults: nil net plan")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faults: listen: %w", err)
	}
	p := &ChaosProxy{ln: ln, backend: backend, plan: plan, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL for HTTP clients.
func (p *ChaosProxy) URL() string { return "http://" + p.Addr() }

// Stats snapshots the proxy's live counters.
func (p *ChaosProxy) Stats() ChaosProxyStats {
	return ChaosProxyStats{
		Conns:     p.stats.conns.Load(),
		Resets:    p.stats.resets.Load(),
		Truncates: p.stats.truncates.Load(),
		Stalls:    p.stats.stalls.Load(),
		Delayed:   p.stats.delayed.Load(),
		BytesUp:   p.stats.bytesUp.Load(),
		BytesDown: p.stats.bytesDown.Load(),
	}
}

// Close stops accepting, severs every live connection, and waits for the
// relay goroutines to drain.
func (p *ChaosProxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.connsMu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.connsMu.Unlock()
	p.wg.Wait()
	return err
}

func (p *ChaosProxy) track(c net.Conn) {
	p.connsMu.Lock()
	p.conns[c] = struct{}{}
	p.connsMu.Unlock()
}

func (p *ChaosProxy) untrack(c net.Conn) {
	p.connsMu.Lock()
	delete(p.conns, c)
	p.connsMu.Unlock()
}

func (p *ChaosProxy) serve() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		idx := int(p.next.Add(1)) - 1
		p.stats.conns.Add(1)
		p.wg.Add(1)
		go p.relay(c, p.plan.Conn(idx))
	}
}

// sleepUnlessClosed waits d, returning early (false) when the proxy shuts
// down mid-sleep.
func (p *ChaosProxy) sleepUnlessClosed(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if p.closed.Load() {
			return false
		}
		step := time.Until(deadline)
		if step > 25*time.Millisecond {
			step = 25 * time.Millisecond
		}
		time.Sleep(step)
	}
	return !p.closed.Load()
}

// relay pumps one client connection through its fault recipe.
func (p *ChaosProxy) relay(client net.Conn, plan ConnPlan) {
	defer p.wg.Done()
	p.track(client)
	defer p.untrack(client)
	defer client.Close()

	if plan.AcceptStall > 0 {
		p.stats.stalls.Add(1)
		if !p.sleepUnlessClosed(plan.AcceptStall) {
			return
		}
	}
	backend, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	p.track(backend)
	defer p.untrack(backend)
	defer backend.Close()

	done := make(chan struct{}, 2)
	// Upstream pump: client -> backend, unmolested.
	go func() {
		n, _ := io.Copy(backend, client)
		p.stats.bytesUp.Add(n)
		// Half-close toward the backend so a finished client drains cleanly.
		if tc, ok := backend.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// Downstream pump: backend -> client, through the fault recipe.
	go func() {
		p.pumpDown(client, backend, plan)
		done <- struct{}{}
	}()
	<-done
	// Closing both ends (via the defers) unblocks the other pump.
}

// pumpDown forwards response bytes with the plan's latency and byte
// budgets applied. Reaching a reset budget tears the client connection
// down with an RST; reaching a truncation budget closes it mid-stream.
func (p *ChaosProxy) pumpDown(client, backend net.Conn, plan ConnPlan) {
	budget := int64(-1)
	reset := false
	if plan.ResetAfter > 0 {
		budget, reset = plan.ResetAfter, true
	}
	if plan.TruncateAfter > 0 && (budget < 0 || plan.TruncateAfter < budget) {
		budget, reset = plan.TruncateAfter, false
	}
	buf := make([]byte, 16<<10)
	delayed := plan.Latency > 0
	var sent int64
	for {
		if budget >= 0 && sent >= budget {
			if reset {
				p.stats.resets.Add(1)
				if tc, ok := client.(*net.TCPConn); ok {
					tc.SetLinger(0) // force RST instead of FIN
				}
			} else {
				p.stats.truncates.Add(1)
			}
			client.Close()
			backend.Close()
			return
		}
		chunk := int64(len(buf))
		if budget >= 0 && budget-sent < chunk {
			chunk = budget - sent
		}
		n, err := backend.Read(buf[:chunk])
		if n > 0 {
			if delayed {
				delayed = false
				p.stats.delayed.Add(1)
				if !p.sleepUnlessClosed(plan.Latency) {
					return
				}
			}
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
			sent += int64(n)
			p.stats.bytesDown.Add(int64(n))
		}
		if err != nil {
			return
		}
	}
}
