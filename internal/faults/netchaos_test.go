package faults

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// netChaos is a recipe with byte budgets of a few KB to a few tens of KB.
func netChaos(seed int64, conns int) NetChaosConfig {
	return NetChaosConfig{
		Seed: seed, Conns: conns,
		ResetMinBytes: 2 << 10, ResetMaxBytes: 48 << 10,
		TruncateMinBytes: 1 << 10, TruncateMaxBytes: 32 << 10,
	}
}

func TestNetPlanDeterministicAcrossCompilations(t *testing.T) {
	cfg := netChaos(7, 128)
	a, err := CompileNetPlan(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileNetPlan(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Describe() != b.Describe() {
		t.Fatal("same (config, seed) produced different plans")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same plan, different digest")
	}
	other, err := CompileNetPlan(netChaos(8, 128), 1)
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest() == a.Digest() {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestNetPlanDeterministicAcrossParallelism(t *testing.T) {
	cfg := netChaos(42, 300)
	want := ""
	for _, parallel := range []int{1, 2, 4, 7} {
		p, err := CompileNetPlan(cfg, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = p.Describe()
			continue
		}
		if got := p.Describe(); got != want {
			t.Fatalf("parallel=%d compiled a different plan", parallel)
		}
	}
}

func TestNetPlanCoversEveryFamily(t *testing.T) {
	p, err := CompileNetPlan(netChaos(1, 512), 2)
	if err != nil {
		t.Fatal(err)
	}
	var latency, resets, truncates, stalls int
	for _, c := range p.conns {
		if c.Latency > 0 {
			latency++
		}
		if c.ResetAfter > 0 {
			resets++
		}
		if c.TruncateAfter > 0 {
			truncates++
		}
		if c.AcceptStall > 0 {
			stalls++
		}
	}
	for name, n := range map[string]int{
		"latency": latency, "reset": resets, "truncate": truncates, "stall": stalls,
	} {
		if n == 0 {
			t.Errorf("default chaos recipe drew zero %s faults over 512 conns", name)
		}
	}
	if p.Conns() != 512 {
		t.Errorf("plan has %d conns, want 512", p.Conns())
	}
}

func TestNetPlanRejectsNoConnections(t *testing.T) {
	if _, err := CompileNetPlan(netChaos(1, -8), 1); err == nil {
		t.Fatal("a plan of -8 connections accepted")
	}
}

// echoBackend accepts connections and writes back everything it reads.
func echoBackend(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestChaosProxyForwardsCleanConnections(t *testing.T) {
	backend, stop := echoBackend(t)
	defer stop()
	// A plan with no fault families: every connection is clean.
	plan := &NetPlan{conns: make([]ConnPlan, 4)}
	proxy, err := NewChaosProxy(backend, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello through the chaos proxy")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
	if st := proxy.Stats(); st.Conns != 1 || st.Resets != 0 || st.Truncates != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestChaosProxyCutsConnectionAtByteBudget(t *testing.T) {
	backend, stop := echoBackend(t)
	defer stop()
	// Force a reset after 64 response bytes on every connection.
	plan := &NetPlan{
		cfg:   NetChaosConfig{Seed: 1, Conns: 1},
		conns: []ConnPlan{{Conn: 0, ResetAfter: 64}},
	}
	proxy, err := NewChaosProxy(backend, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := bytes.Repeat([]byte("x"), 4096)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if err == nil && n >= int64(len(payload)) {
		t.Fatalf("full %d-byte echo survived a 64-byte reset budget", n)
	}
	if n > 64 {
		t.Fatalf("forwarded %d bytes past the 64-byte budget", n)
	}
	if st := proxy.Stats(); st.Resets != 1 {
		t.Fatalf("expected 1 reset, got %+v", st)
	}
}

func TestChaosProxyWrapsPlanIndex(t *testing.T) {
	p := &NetPlan{conns: []ConnPlan{{Conn: 0, ResetAfter: 10}, {Conn: 1}}}
	if got := p.Conn(2); got.ResetAfter != 10 {
		t.Fatalf("Conn(2) = %+v, want wrap to conn 0", got)
	}
	if got := p.Conn(3); got.ResetAfter != 0 {
		t.Fatalf("Conn(3) = %+v, want wrap to conn 1", got)
	}
	fmt.Fprint(io.Discard, p.Describe())
}
