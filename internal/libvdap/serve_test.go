package libvdap

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// failingWriter fails every write after the first n bytes, standing in for
// a client that hung up mid-body.
type failingWriter struct {
	header http.Header
	code   int
}

func (f *failingWriter) Header() http.Header {
	if f.header == nil {
		f.header = http.Header{}
	}
	return f.header
}
func (f *failingWriter) WriteHeader(code int)      { f.code = code }
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestWriteJSONCountsWriteErrors pins satellite bug 4: a mid-body write
// failure must land in libvdap.write_errors instead of vanishing.
func TestWriteJSONCountsWriteErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{Metrics: reg}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}

	srv.writeJSON(&failingWriter{}, http.StatusOK, map[string]string{"k": "v"})
	if got := srv.Stats().WriteErrors; got != 1 {
		t.Fatalf("WriteErrors = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["libvdap.write_errors"]; got != 1 {
		t.Fatalf("libvdap.write_errors = %v, want 1", got)
	}

	// Unmarshalable values count too (and produce a clean 500).
	fw := &failingWriter{}
	srv.writeJSON(fw, http.StatusOK, map[string]any{"bad": func() {}})
	if got := srv.Stats().WriteErrors; got != 2 {
		t.Fatalf("WriteErrors after marshal failure = %d, want 2", got)
	}
}

// TestWriteErrorsWithoutTelemetry: the counter path must be nil-safe
// under a zero scope.
func TestWriteErrorsWithoutTelemetry(t *testing.T) {
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	srv.writeJSON(&failingWriter{}, http.StatusOK, "x")
	if got := srv.Stats().WriteErrors; got != 1 {
		t.Fatalf("WriteErrors = %d, want 1", got)
	}
}

// TestStreamSlowClientDisconnect pins satellite bug 3: a client that goes
// away mid-stream must be observed and the handler must exit instead of
// polling forever.
func TestStreamSlowClientDisconnect(t *testing.T) {
	now := time.Second
	store := obs.NewSeriesStore(16)
	store.RecordGauge("g", 100*time.Millisecond, 1)
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{Series: store}, func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Raw TCP client: read the first frame, then vanish without a clean
	// shutdown. frames=0 would otherwise stream forever.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /api/v1/stream?frames=0&poll=0.005 HTTP/1.1\r\nHost: x\r\n\r\n")
	br := bufio.NewReader(conn)
	sawFrame := false
	for i := 0; i < 64; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		if strings.Contains(line, "watermarkNs") {
			sawFrame = true
			break
		}
	}
	if !sawFrame {
		t.Fatal("never saw a stream frame")
	}
	if got := srv.ActiveStreams(); got != 1 {
		t.Fatalf("ActiveStreams = %d, want 1", got)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveStreams() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream handler still running %v after client disconnect", 5*time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionControlSheds pins the overload contract: when the run-lock
// backlog is full, simulation-touching endpoints shed with 503 +
// Retry-After JSON instead of queueing without bound.
func TestAdmissionControlSheds(t *testing.T) {
	ts, _, _ := newTestServer(t)
	srv := fetchServer(t, ts)
	srv.SetMaxSimInflight(1)

	// Hold the run lock as a tick loop would mid-step.
	holding := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- srv.Advance(func() error {
			close(holding)
			<-release
			return nil
		})
	}()
	<-holding

	// First request takes the only admission slot and parks on the lock.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, err := http.Get(ts.URL + "/api/v1/resources")
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the slot is actually taken before probing, otherwise the
	// probe itself could grab it and park on the held lock.
	gateDeadline := time.Now().Add(5 * time.Second)
	for len(srv.simGate) == 0 {
		if time.Now().After(gateDeadline) {
			t.Fatal("parked request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/api/v1/resources")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("probe status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 missing Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("503 Content-Type = %q, want JSON", ct)
	}
	if srv.Stats().Rejected == 0 {
		t.Fatal("shed requests not counted")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-parked
}

// fetchServer digs the *Server back out of a test fixture; newTestServer
// returns only the httptest wrapper.
func fetchServer(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	srv, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("handler is %T, want *Server", ts.Config.Handler)
	}
	return srv
}
