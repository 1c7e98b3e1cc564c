package libvdap

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"

	"repro/internal/obs"
)

// lifecycle is the server's drain state: a draining flag guarded by an
// RWMutex plus an in-flight WaitGroup. Requests take the read lock to
// check the flag and join the WaitGroup atomically; Shutdown takes the
// write lock to flip the flag, which makes flag-flip and WaitGroup.Wait
// race-free (no Add can land after Wait starts).
type lifecycle struct {
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup
	drainCh  chan struct{}
}

// begin admits one request: false means the server is draining and the
// caller must shed. On true the caller owes a call to done().
func (l *lifecycle) begin() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.draining {
		return false
	}
	l.inflight.Add(1)
	return true
}

func (l *lifecycle) done() { l.inflight.Done() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.life.mu.RLock()
	defer s.life.mu.RUnlock()
	return s.life.draining
}

// Shutdown drains the server gracefully: new requests are shed with 503 +
// Connection: close, in-flight handlers (including /api/v1/stream consumers,
// which receive a Final-marked frame) run to completion, then Shutdown
// returns nil. If ctx expires first the error reports how the drain timed
// out; handlers keep draining in the background either way. Shutdown is
// idempotent and safe to call concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.life.mu.Lock()
	first := !s.life.draining
	s.life.draining = true
	s.life.mu.Unlock()
	if first {
		close(s.life.drainCh)
	}
	done := make(chan struct{})
	go func() {
		s.life.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("libvdap: drain incomplete: %w", ctx.Err())
	}
}

// shedDraining rejects a request that arrived after Shutdown began. The
// Connection: close tells keep-alive clients to re-dial elsewhere.
func (s *Server) shedDraining(w http.ResponseWriter) {
	s.shedTotal.Add(1)
	s.rejected.Inc()
	w.Header().Set("Connection", "close")
	w.Header().Set("Retry-After", "1")
	s.writeErrRes(w, http.StatusServiceUnavailable, fmt.Errorf("server draining"))
}

// handleHealthz is liveness: 200 whenever the process can serve at all,
// draining included — a draining server is alive, just not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"virtualTime": s.clock().Seconds(),
	})
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing here before the hard cutoff.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":  false,
			"reason": "draining",
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// Panics reports how many handler panics the recovery middleware caught.
func (s *Server) Panics() int64 { return s.panicsTotal.Load() }

// recoverPanic converts a handler panic into a JSON 500, counts it in
// libvdap.panics, and files the stack into the flight recorder so a crash
// loop is diagnosable from /api/v1/events. http.ErrAbortHandler passes
// through: it is the sanctioned way to abort a response, not a bug.
func (s *Server) recoverPanic(w http.ResponseWriter, r *http.Request) {
	rec := recover()
	if rec == nil {
		return
	}
	if rec == http.ErrAbortHandler {
		panic(rec)
	}
	s.panicsTotal.Add(1)
	s.panicsCtr.Inc()
	if s.scope.Events != nil {
		s.scope.Events.Emit(s.clock(), "libvdap", obs.SevError, "handler panic",
			obs.String("method", r.Method),
			obs.String("path", r.URL.Path),
			obs.String("panic", fmt.Sprint(rec)),
			obs.String("stack", string(debug.Stack())),
		)
	}
	// Best effort: if the handler already wrote headers this writes into
	// the body, but the common case (panic before any write) gets a clean
	// JSON 500.
	s.writeErrRes(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
}
