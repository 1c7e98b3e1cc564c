package libvdap

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/vcu"
)

// Clock supplies virtual time to API handlers so HTTP access participates
// in the simulation's timeline. It must be safe for concurrent use (the
// kernel's clock is atomic; see sim.Clock).
type Clock func() time.Duration

// DefaultMaxSimInflight bounds how many requests may hold or wait on the
// simulation lock at once before further ones are shed with 503.
const DefaultMaxSimInflight = 64

// Errors the serve path answers with. Each is built once, so a refused or
// detached request allocates no error.
var (
	errOverloaded      = errors.New("server overloaded, retry")
	errNoTelemetry     = errors.New("telemetry not attached")
	errNoTracer        = errors.New("tracer not attached")
	errNoSeries        = errors.New("series store not attached")
	errNoRecorder      = errors.New("flight recorder not attached")
	errNoObservability = errors.New("observability not attached")
	errNoEdgeOS        = errors.New("EdgeOSv not attached")
	errNoModels        = errors.New("model library not attached")
	errNoVCU           = errors.New("VCU not attached")
	errNoDDI           = errors.New("DDI not attached")
	errNoSharing       = errors.New("data sharing not attached")
)

// DefaultStreamWriteDeadline is how long one /api/v1/stream frame write may
// stall on a slow client before the connection is abandoned.
const DefaultStreamWriteDeadline = 10 * time.Second

// Server is the uniform RESTful API of Figure 8. Every handler fronts one
// of the four resource groups: model library, VCU system resources, data
// sharing, and DDI.
//
// # Concurrency contract
//
// The simulation state behind the API (kernel, VCU, DDI, EdgeOSv modules)
// is owned by a single run loop, but the server is hammered by arbitrary
// client goroutines. Three tiers keep that safe:
//
//  1. The run loop advances the simulation ONLY through Advance, which
//     holds the server's run lock exclusively for the duration of the
//     step. Callers that bypass Advance (running the engine directly
//     while serving) void the contract.
//  2. Handlers that touch simulation-owned state take the run lock:
//     exclusively when they mutate (data upload/query, sharing
//     publish/fetch, service invoke), shared when they only read
//     (resources, services, topics, model registry). Lock admission is
//     bounded (SetMaxSimInflight): when the simulation lags and the
//     backlog exceeds the bound, requests are shed with 503 +
//     Retry-After instead of queueing without limit.
//  3. The hot observability endpoints (status, metrics, series, events,
//     stream) never take the run lock. They read only internally
//     synchronized stores (telemetry.Registry, obs.SeriesStore,
//     obs.Recorder, trace.Tracer) plus the atomic virtual clock, and the
//     four snapshot-shaped ones are served from a response cache keyed on
//     the virtual-time watermark. The cache entry, not the request, owns
//     the encoding: the payload is marshaled once per watermark advance
//     (concurrent misses single-flight behind one builder) and gzipped at
//     most once per watermark, by the first reader whose Accept-Encoding
//     admits gzip. Every reader gets one of the entry's two immutable byte
//     slices (old watermark or new, never torn) written as-is with
//     Content-Length; a hit runs no marshal and no compressor. Requests
//     carrying query parameters bypass the cache and are encoded per
//     request with a pooled compressor, as is /trace.
type Server struct {
	registry *Registry
	mhep     *vcu.MHEP
	store    *ddi.DDI
	sharing  *edgeos.DataSharing
	elastic  *edgeos.ElasticManager
	scope    obs.Scope
	clock    Clock
	mux      *http.ServeMux

	// simMu is the run lock of the concurrency contract above.
	simMu   sync.RWMutex
	simGate chan struct{}

	statusCache  *wmCache
	metricsCache *wmCache
	seriesCache  *wmCache
	eventsCache  *wmCache

	// life is the graceful-drain state (see Shutdown).
	life lifecycle

	// Telemetry mirrors of the internal stats (nil, and so inert, when the
	// scope has no registry).
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	gzipBuilds  *telemetry.Counter
	rejected    *telemetry.Counter
	writeErrs   *telemetry.Counter
	panicsCtr   *telemetry.Counter

	writeErrors atomic.Int64
	shedTotal   atomic.Int64
}

// NewServer wires the API. Any resource group may be nil; its endpoints
// then return 503. elastic backs the EdgeOSv service endpoints (list,
// invoke). The scope's stores back the observability endpoints: Metrics
// /metrics, Tracer /trace, Series /metrics/series, Events /events, Series
// and Events together /stream. The server mirrors its own counters
// (libvdap.cache.*, libvdap.rejected, libvdap.write_errors, libvdap.panics)
// into Metrics.
func NewServer(registry *Registry, mhep *vcu.MHEP, store *ddi.DDI, sharing *edgeos.DataSharing,
	elastic *edgeos.ElasticManager, sc obs.Scope, clock Clock) (*Server, error) {
	if clock == nil {
		return nil, fmt.Errorf("libvdap: nil clock")
	}
	reg := sc.Metrics
	s := &Server{
		registry:     registry,
		mhep:         mhep,
		store:        store,
		sharing:      sharing,
		elastic:      elastic,
		scope:        sc,
		clock:        clock,
		mux:          http.NewServeMux(),
		simGate:      make(chan struct{}, DefaultMaxSimInflight),
		statusCache:  newWMCache(0),
		metricsCache: newWMCache(0),
		seriesCache:  newWMCache(0),
		eventsCache:  newWMCache(0),

		cacheHits:   reg.CounterHandle("libvdap.cache.hits"),
		cacheMisses: reg.CounterHandle("libvdap.cache.misses"),
		gzipBuilds:  reg.CounterHandle("libvdap.cache.gzip_builds"),
		rejected:    reg.CounterHandle("libvdap.rejected"),
		writeErrs:   reg.CounterHandle("libvdap.write_errors"),
		panicsCtr:   reg.CounterHandle("libvdap.panics"),
	}
	s.life.drainCh = make(chan struct{})
	s.routes()
	return s, nil
}

// SetMaxSimInflight bounds how many requests may hold or wait on the run
// lock at once (DefaultMaxSimInflight when non-positive). Configure before
// serving traffic.
func (s *Server) SetMaxSimInflight(n int) {
	if n <= 0 {
		n = DefaultMaxSimInflight
	}
	s.simGate = make(chan struct{}, n)
}

// Advance runs one simulation step under the exclusive run lock. This is
// the ONLY safe way to advance the platform while the server is handling
// traffic; see the Server concurrency contract.
func (s *Server) Advance(step func() error) error {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	return step()
}

// ServerStats aggregates the server's self-counters.
type ServerStats struct {
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Rejected    int64 `json:"rejected"`
	WriteErrors int64 `json:"writeErrors"`
}

// Stats returns the aggregate self-counters (cache hits/misses across all
// cached endpoints, shed requests, response write failures).
func (s *Server) Stats() ServerStats {
	var st ServerStats
	for _, c := range s.caches() {
		cs := c.cache.stat()
		st.CacheHits += cs.Hits
		st.CacheMisses += cs.Misses
	}
	st.Rejected = s.shedTotal.Load()
	st.WriteErrors = s.writeErrors.Load()
	return st
}

type namedCache struct {
	name  string
	cache *wmCache
}

func (s *Server) caches() []namedCache {
	return []namedCache{
		{"status", s.statusCache},
		{"metrics", s.metricsCache},
		{"series", s.seriesCache},
		{"events", s.eventsCache},
	}
}

// CacheStats returns per-endpoint response-cache counters, keyed by
// endpoint ("status", "metrics", "series", "events").
func (s *Server) CacheStats() map[string]CacheStat {
	out := make(map[string]CacheStat, 4)
	for _, c := range s.caches() {
		out[c.name] = c.cache.stat()
	}
	return out
}

// ServeHTTP implements http.Handler. Every request passes the lifecycle
// gate (shed with 503 + Connection: close once draining) and the panic
// recovery middleware; the health endpoints bypass the gate so probes keep
// working through a drain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/api/v1/healthz":
		s.handleHealthz(w, r)
		return
	case "/api/v1/readyz":
		s.handleReadyz(w, r)
		return
	}
	if !s.life.begin() {
		s.shedDraining(w)
		return
	}
	defer s.life.done()
	defer s.recoverPanic(w, r)
	s.mux.ServeHTTP(w, r)
}

var _ http.Handler = (*Server)(nil)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /api/v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /api/v1/models", s.lockedRead(s.handleListModels))
	s.mux.HandleFunc("GET /api/v1/models/{name}", s.lockedRead(s.handleModelInfo))
	s.mux.HandleFunc("POST /api/v1/models/{name}/predict", s.lockedRead(s.handlePredict))
	s.mux.HandleFunc("GET /api/v1/resources", s.lockedRead(s.handleResources))
	s.mux.HandleFunc("POST /api/v1/data/upload", s.locked(s.handleUpload))
	s.mux.HandleFunc("GET /api/v1/data/query", s.locked(s.handleQuery))
	s.mux.HandleFunc("GET /api/v1/data/window", s.lockedRead(s.handleWindow))
	s.mux.HandleFunc("GET /api/v1/sharing/topics", s.lockedRead(s.handleTopics))
	s.mux.HandleFunc("POST /api/v1/sharing/publish", s.locked(s.handlePublish))
	s.mux.HandleFunc("GET /api/v1/sharing/fetch", s.locked(s.handleFetch))
	s.mux.HandleFunc("GET /api/v1/services", s.lockedRead(s.handleListServices))
	s.mux.HandleFunc("POST /api/v1/services/{name}/invoke", s.locked(s.handleInvokeService))
	s.mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /api/v1/metrics/series", s.handleSeries)
	s.mux.HandleFunc("GET /api/v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/stream", s.handleStream)
}

// admit takes one admission slot, or sheds the request with 503 +
// Retry-After when the run-lock backlog is full (the simulation is lagging
// behind offered load). The caller must call release on true.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.simGate <- struct{}{}:
		return true
	default:
		s.shed(w)
		return false
	}
}

// release frees the admission slot a successful admit took.
func (s *Server) release() { <-s.simGate }

// shed rejects a request the serving tier cannot absorb right now.
func (s *Server) shed(w http.ResponseWriter) {
	s.shedTotal.Add(1)
	s.rejected.Inc()
	w.Header()["Retry-After"] = retryAfterOne
	s.writeErrRes(w, http.StatusServiceUnavailable, errOverloaded)
}

// locked wraps a handler that mutates simulation-owned state: bounded
// admission, then the exclusive run lock.
func (s *Server) locked(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w) {
			return
		}
		defer s.release()
		s.simMu.Lock()
		defer s.simMu.Unlock()
		h(w, r)
	}
}

// lockedRead wraps a handler that only reads simulation-owned state:
// bounded admission, then the shared run lock (concurrent with other
// readers, exclusive against Advance and mutating handlers).
func (s *Server) lockedRead(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w) {
			return
		}
		defer s.release()
		s.simMu.RLock()
		defer s.simMu.RUnlock()
		h(w, r)
	}
}

// acceptsGzip reports whether the Accept-Encoding header lines admit a gzip
// reply: a "gzip" token decides (refused by q=0), else "*" does, else
// identity. Tokens match whole and case-insensitively, never by substring.
func acceptsGzip(lines []string) bool {
	star := false
	for _, line := range lines {
		for more := true; more; {
			var token string
			token, line, more = strings.Cut(line, ",")
			coding, params, _ := strings.Cut(token, ";")
			coding = strings.TrimSpace(coding)
			isGzip := strings.EqualFold(coding, "gzip")
			if !isGzip && coding != "*" {
				continue
			}
			ok := true
			if q, found := strings.CutPrefix(strings.ToLower(strings.TrimSpace(params)), "q="); found {
				v, err := strconv.ParseFloat(q, 64)
				ok = err == nil && v > 0
			}
			if isGzip {
				return ok
			}
			star = ok
		}
	}
	return star
}

// writeEncoded writes a 200 of a negotiating route: body is already gzipped
// or identity. Identity replies vary on the request header too, or an
// intermediary would replay them to gzip clients.
func (s *Server) writeEncoded(w http.ResponseWriter, contentType []string, gzipped bool, body []byte) {
	h := w.Header()
	h["Vary"] = varyAcceptEncoding
	if gzipped {
		h["Content-Encoding"] = gzipEncoding
	}
	s.writeBody(w, http.StatusOK, contentType, body)
}

// writeNegotiated writes the 200 of an uncached negotiating route,
// compressing per request with a pooled compressor when the client accepts
// gzip. Negotiating here, at write time, keeps every error reply identity.
func (s *Server) writeNegotiated(w http.ResponseWriter, r *http.Request, contentType []string, body []byte) {
	if !acceptsGzip(r.Header["Accept-Encoding"]) {
		s.writeEncoded(w, contentType, false, body)
		return
	}
	enc := gzipPool.Get().(*gzipEncoder)
	defer gzipPool.Put(enc)
	s.writeEncoded(w, contentType, true, enc.encode(body))
}

// jsonBody marshals v exactly as json.Encoder.Encode would (compact JSON
// plus a trailing newline), so cached bodies and per-request encodes are
// byte-identical. Only a cache entry, which owns its bytes, needs it: every
// other reply encodes through a pooled reply.
func jsonBody(v any) ([]byte, error) {
	out, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// cached serves one watermark-keyed cacheable endpoint: requests without
// query parameters are answered with the stored bytes of the cache entry's
// identity or gzip representation; the rest marshal and encode per request.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, c *wmCache, build func() (any, error)) {
	if r.URL.RawQuery != "" {
		v, err := build()
		if err != nil {
			s.writeErrRes(w, http.StatusInternalServerError, err)
			return
		}
		rb := getReply()
		defer putReply(rb)
		if body, ok := s.encode(w, rb, v); ok {
			s.writeNegotiated(w, r, jsonContentTypes, body)
		}
		return
	}
	e, hit, err := c.get(s.clock(), func() ([]byte, error) {
		v, err := build()
		if err != nil {
			return nil, err
		}
		return jsonBody(v)
	})
	if err == errBusy {
		s.shed(w)
		return
	}
	if err != nil {
		s.writeErrRes(w, http.StatusInternalServerError, err)
		return
	}
	if hit {
		s.cacheHits.Inc()
	} else {
		s.cacheMisses.Inc()
	}
	body, gzipped := e.body, acceptsGzip(r.Header["Accept-Encoding"])
	if gzipped {
		var built bool
		if body, built = c.gzipped(e); built {
			s.gzipBuilds.Inc()
		}
	}
	s.writeEncoded(w, jsonContentTypes, gzipped, body)
}

// handleMetrics serves the telemetry snapshot. The default is the JSON
// Snapshot shape; ?format=text renders the sorted human-readable table.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.scope.Metrics == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoTelemetry)
		return
	}
	if queryGet(r.URL.RawQuery, "format") == "text" {
		s.writeNegotiated(w, r, textContentTypes, []byte(s.scope.Metrics.Render()))
		return
	}
	s.cached(w, r, s.metricsCache, func() (any, error) { return s.scope.Metrics.Snapshot(), nil })
}

// handleTrace serves the recorded span forest. The default is Chrome
// trace_event JSON (load in chrome://tracing or Perfetto); ?format=tree
// renders the indented text tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.scope.Tracer == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoTracer)
		return
	}
	if queryGet(r.URL.RawQuery, "format") == "tree" {
		s.writeNegotiated(w, r, textContentTypes, []byte(s.scope.Tracer.RenderTree()))
		return
	}
	out, err := s.scope.Tracer.ChromeTrace()
	if err != nil {
		s.writeErrRes(w, http.StatusInternalServerError, err)
		return
	}
	s.writeNegotiated(w, r, jsonContentTypes, out)
}

// parseSince reads an optional virtual-time watermark in seconds; an empty
// value means "everything" (a negative watermark).
func parseSince(s string) (time.Duration, error) {
	if s == "" {
		return -1, nil
	}
	return parseSeconds(s)
}

// handleSeries serves the sampled metric time-series: delta-encoded
// timestamps, values, and windowed rates per metric, optionally restricted
// to points after ?since=<seconds of virtual time>.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	if s.scope.Series == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoSeries)
		return
	}
	since, err := parseSince(queryGet(r.URL.RawQuery, "since"))
	if err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	s.cached(w, r, s.seriesCache, func() (any, error) { return s.scope.Series.Payload(since), nil })
}

// EventsResponse is the `/api/v1/events` payload.
type EventsResponse struct {
	Events  []obs.Event `json:"events"`
	Dropped int         `json:"dropped,omitempty"`
}

// handleEvents serves the flight-recorder log with ?since=<seconds>,
// ?component= and ?severity=<minimum> filters; ?format=table renders the
// text table instead.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.scope.Events == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoRecorder)
		return
	}
	qs := r.URL.RawQuery
	if queryGet(qs, "format") == "table" {
		s.writeNegotiated(w, r, textContentTypes, []byte(s.scope.Events.RenderTable()))
		return
	}
	since, err := parseSince(queryGet(qs, "since"))
	if err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	minSev := obs.SevDebug
	if sev := queryGet(qs, "severity"); sev != "" {
		if minSev, err = obs.ParseSeverity(sev); err != nil {
			s.writeErrRes(w, http.StatusBadRequest, err)
			return
		}
	}
	component := queryGet(qs, "component")
	s.cached(w, r, s.eventsCache, func() (any, error) {
		return EventsResponse{
			Events:  s.scope.Events.EventsSince(since, component, minSev),
			Dropped: s.scope.Events.Dropped(),
		}, nil
	})
}

// handleStream serves chunked newline-delimited JSON frames keyed on
// virtual-time watermarks: each frame carries only the series points and
// events past the previous frame's watermark, so a long-lived client never
// re-reads a full snapshot. ?since=<seconds> seeds the first watermark,
// ?frames=<n> bounds the frame count (0 streams until the client
// disconnects), and ?poll=<seconds> sets the wall-clock re-check interval.
//
// A single reused timer paces the polling (no per-iteration allocation),
// client disconnect is observed both in the poll wait and between encode
// and flush, and each frame write runs under DefaultStreamWriteDeadline so a
// stalled client cannot pin the handler forever.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.scope.Series == nil && s.scope.Events == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoObservability)
		return
	}
	qs := r.URL.RawQuery
	watermark, err := parseSince(queryGet(qs, "since"))
	if err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	frames := 0
	if fs := queryGet(qs, "frames"); fs != "" {
		if frames, err = strconv.Atoi(fs); err != nil || frames < 0 {
			s.writeErrRes(w, http.StatusBadRequest, fmt.Errorf("bad frames %q", fs))
			return
		}
	}
	poll := 100 * time.Millisecond
	if ps := queryGet(qs, "poll"); ps != "" {
		if poll, err = parseSeconds(ps); err != nil || poll <= 0 {
			s.writeErrRes(w, http.StatusBadRequest, fmt.Errorf("bad poll %q", ps))
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	sent := 0
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	// writeFrame ships the points and events in (watermark, until] in a
	// frame stamped with watermark mark. A final frame additionally
	// carries the drain marker so clients know the stream ended on purpose.
	writeFrame := func(mark, until time.Duration, final bool) bool {
		frame := obs.Frame{WatermarkNs: int64(mark), Final: final}
		if s.scope.Series != nil {
			p := s.scope.Series.PayloadUntil(watermark, until)
			frame.Series = &p
		}
		if s.scope.Events != nil {
			evs := s.scope.Events.EventsSince(watermark, "", obs.SevDebug)
			for len(evs) > 0 && evs[len(evs)-1].At > until {
				evs = evs[:len(evs)-1] // ordered by At: trim the tail
			}
			frame.Events = evs
		}
		rc.SetWriteDeadline(time.Now().Add(DefaultStreamWriteDeadline))
		if err := enc.Encode(frame); err != nil {
			return false
		}
		// The client may have vanished while the frame was encoded;
		// don't keep flushing into a dead connection.
		if ctx.Err() != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	drained := s.life.drainCh
	for {
		if ctx.Err() != nil {
			return
		}
		select {
		case <-drained:
			// The server is draining: flush the whole remaining backlog as
			// one final frame and end the stream cleanly.
			writeFrame(s.clock(), math.MaxInt64, true)
			return
		default:
		}
		// A frame ships only what is final: everything before the clock
		// reading. The clock is read without the run lock, so a kernel
		// event or a mutating handler may still record at the current
		// instant after this frame is built; shipping that instant would
		// move the watermark past it and lose those records for good. The
		// frame's watermark, the resume cursor, is therefore now - 1ns
		// (never below the watermark already shipped or asked for).
		cut := max(s.clock()-1, watermark)
		// The first frame ships the backlog immediately; later frames wait
		// for the clock to advance.
		if sent == 0 || cut > watermark {
			if !writeFrame(cut, cut, false) {
				return
			}
			watermark = cut
			sent++
		}
		if frames > 0 && sent >= frames {
			return
		}
		timer.Reset(poll)
		select {
		case <-ctx.Done():
			if !timer.Stop() {
				<-timer.C
			}
			return
		case <-drained:
			if !timer.Stop() {
				<-timer.C
			}
			writeFrame(s.clock(), math.MaxInt64, true)
			return
		case <-timer.C:
		}
	}
}

// ServiceInfo summarizes one EdgeOSv service over the API.
type ServiceInfo struct {
	Name        string         `json:"name"`
	Priority    int            `json:"priority"`
	State       string         `json:"state"`
	Invocations int            `json:"invocations"`
	HangUps     int            `json:"hangUps"`
	AvgMS       float64        `json:"avgLatencyMs"`
	EnergyJ     float64        `json:"energyJ"`
	PipelineUse map[string]int `json:"pipelineUse"`
}

func (s *Server) handleListServices(w http.ResponseWriter, r *http.Request) {
	if s.elastic == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoEdgeOS)
		return
	}
	services := s.elastic.Services()
	out := make([]ServiceInfo, 0, len(services))
	for _, svc := range services {
		st, err := s.elastic.Stats(svc.Name)
		if err != nil {
			continue
		}
		info := ServiceInfo{
			Name:        svc.Name,
			Priority:    int(svc.Priority),
			State:       svc.State().String(),
			Invocations: st.Invocations,
			HangUps:     st.HangUps,
			EnergyJ:     st.TotalEnergyJ,
			PipelineUse: st.PipelineUse,
		}
		if n := st.Invocations - st.HangUps; n > 0 {
			info.AvgMS = float64(st.TotalLatency) / float64(n) / float64(time.Millisecond)
		}
		out = append(out, info)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// InvokeResponse reports one API-triggered service invocation.
type InvokeResponse struct {
	Service   string  `json:"service"`
	Pipeline  string  `json:"pipeline"`
	Dest      string  `json:"dest"`
	LatencyMS float64 `json:"latencyMs"`
	HungUp    bool    `json:"hungUp"`
}

func (s *Server) handleInvokeService(w http.ResponseWriter, r *http.Request) {
	if s.elastic == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoEdgeOS)
		return
	}
	name := r.PathValue("name")
	res, err := s.elastic.Invoke(name, s.clock())
	if err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, InvokeResponse{
		Service:   res.Service,
		Pipeline:  res.Pipeline,
		Dest:      res.Dest,
		LatencyMS: float64(res.Latency) / float64(time.Millisecond),
		HungUp:    res.HungUp,
	})
}

const jsonContentType = "application/json; charset=utf-8"

// Header values every reply of a kind shares, assigned to the header map
// instead of Set so that no reply allocates them. Each has cap == len: an
// Add to the same key appends into a fresh array and never writes here.
var (
	jsonContentTypes   = []string{jsonContentType}
	textContentTypes   = []string{"text/plain; charset=utf-8"}
	varyAcceptEncoding = []string{"Accept-Encoding"}
	gzipEncoding       = []string{"gzip"}
	retryAfterOne      = []string{"1"}
)

// writeBody writes a fully-materialized response with an explicit
// Content-Length (no chunked framing), counting write failures (client
// hangups mid-body) in libvdap.write_errors so the serve sweep can report
// them instead of hiding them. It reports whether the write went through.
func (s *Server) writeBody(w http.ResponseWriter, status int, contentType []string, body []byte) bool {
	h := w.Header()
	h["Content-Type"] = contentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.countWriteError()
		return false
	}
	return true
}

func (s *Server) countWriteError() {
	s.writeErrors.Add(1)
	s.writeErrs.Inc()
}

// maxPooledReply caps the buffer a pooled reply may keep: one that grew past
// it (a large unlimited query) is dropped instead of pinned in the pool.
const maxPooledReply = 64 << 10

// reply is one request's reusable scratch: the buffer the request body is
// read into and then the reply encoded into, the JSON encoder that writes
// it, the record scratch /data/query downloads into, and the feature and
// activation scratch of a predict. Encoder.Encode writes compact JSON plus a
// newline, so its bytes equal jsonBody's.
type reply struct {
	buf      bytes.Buffer
	enc      *json.Encoder
	recs     []ddi.Record
	features []float64
	model    models.Scratch
}

var replyPool = sync.Pool{New: func() any {
	rb := new(reply)
	rb.enc = json.NewEncoder(&rb.buf)
	return rb
}}

func getReply() *reply { return replyPool.Get().(*reply) }

// putReply returns rb to the pool, once everything encoded into it has been
// written, unless its buffer or a scratch slice grew past maxPooledReply.
// The record scratch is cleared first, so the pool pins no record payload.
func putReply(rb *reply) {
	if rb.buf.Cap() > maxPooledReply || cap(rb.recs)*int(unsafe.Sizeof(ddi.Record{})) > maxPooledReply ||
		cap(rb.features)*8 > maxPooledReply {
		return
	}
	clear(rb.recs)
	rb.recs = rb.recs[:0]
	rb.buf.Reset()
	replyPool.Put(rb)
}

// encodeFailed is the reply that replaces a body the server cannot encode.
var encodeFailed = []byte(`{"error":"encode response"}` + "\n")

// encode encodes v into rb's buffer up front and returns the bytes, valid
// until rb goes back to the pool. A value that cannot be encoded is answered
// with a clean JSON 500 instead of a torn body and counted with the write
// failures, once per reply however the 500's own write goes.
func (s *Server) encode(w http.ResponseWriter, rb *reply, v any) ([]byte, bool) {
	rb.buf.Reset()
	if err := rb.enc.Encode(v); err != nil {
		if s.writeBody(w, http.StatusInternalServerError, jsonContentTypes, encodeFailed) {
			s.countWriteError()
		}
		return nil, false
	}
	return rb.buf.Bytes(), true
}

// writeJSONWith encodes v through rb and writes it with the given status.
func (s *Server) writeJSONWith(w http.ResponseWriter, rb *reply, status int, v any) {
	if body, ok := s.encode(w, rb, v); ok {
		s.writeBody(w, status, jsonContentTypes, body)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	rb := getReply()
	defer putReply(rb)
	s.writeJSONWith(w, rb, status, v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeErrRes(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.cached(w, r, s.statusCache, func() (any, error) {
		return map[string]any{
			"platform":    "openvdap",
			"virtualTime": s.clock().Seconds(),
			"groups": map[string]bool{
				"models":    s.registry != nil,
				"resources": s.mhep != nil,
				"data":      s.store != nil,
				"sharing":   s.sharing != nil,
			},
		}, nil
	})
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	if s.registry == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoModels)
		return
	}
	s.writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	if s.registry == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoModels)
		return
	}
	info, err := s.registry.Info(r.PathValue("name"))
	if err != nil {
		s.writeErrRes(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// PredictRequest is the body of POST /models/{name}/predict.
type PredictRequest struct {
	Features []float64 `json:"features"`
}

// PredictResponse is its result.
type PredictResponse struct {
	Probabilities []float64 `json:"probabilities"`
	Class         int       `json:"class"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if s.registry == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoModels)
		return
	}
	rb := getReply()
	defer putReply(rb)
	body, readErr := readBody(w, r, rb)
	req, err := decodePredict(body, readErr, rb.features)
	if err != nil {
		s.writeErrRes(w, decodeStatus(err), err)
		return
	}
	if cap(req.Features) > cap(rb.features) {
		rb.features = req.Features[:0]
	}
	probs, class, err := s.registry.Predict(r.PathValue("name"), req.Features, &rb.model)
	if err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSONWith(w, rb, http.StatusOK, PredictResponse{Probabilities: probs, Class: class})
}

func (s *Server) handleResources(w http.ResponseWriter, r *http.Request) {
	if s.mhep == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoVCU)
		return
	}
	now := s.clock()
	horizon := now
	if horizon == 0 {
		horizon = time.Second
	}
	s.writeJSON(w, http.StatusOK, s.mhep.Profiles(now, horizon))
}

// UploadRequest is the body of POST /data/upload.
type UploadRequest struct {
	Source  string  `json:"source"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Payload []byte  `json:"payload"`
}

// UploadResponse returns the assigned record ID.
type UploadResponse struct {
	ID uint64 `json:"id"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoDDI)
		return
	}
	rb := getReply()
	defer putReply(rb)
	body, readErr := readBody(w, r, rb)
	req, err := decodeUpload(body, readErr)
	if err != nil {
		s.writeErrRes(w, decodeStatus(err), err)
		return
	}
	rec, err := s.store.Upload(s.clock(), ddi.Source(req.Source), req.X, req.Y, req.Payload)
	if err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSONWith(w, rb, http.StatusOK, UploadResponse{ID: rec.ID})
}

// QueryResponse carries a DDI range query's results and simulated latency.
type QueryResponse struct {
	Records   []ddi.Record `json:"records"`
	LatencyMS float64      `json:"latencyMs"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoDDI)
		return
	}
	qs := r.URL.RawQuery
	q := ddi.Query{Source: ddi.Source(queryGet(qs, "source"))}
	var err error
	if q.From, err = parseSeconds(queryGet(qs, "from")); err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	if q.To, err = parseSeconds(queryGet(qs, "to")); err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	if limit := queryGet(qs, "limit"); limit != "" {
		n, err := strconv.Atoi(limit)
		if err != nil || n < 0 {
			s.writeErrRes(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", limit))
			return
		}
		q.Limit = n
	}
	rb := getReply()
	defer putReply(rb)
	recs, latency, err := s.store.DownloadAppend(rb.recs, s.clock(), q)
	if err != nil {
		s.writeErrRes(w, http.StatusInternalServerError, err)
		return
	}
	rb.recs = recs
	resp := QueryResponse{LatencyMS: float64(latency) / float64(time.Millisecond)}
	if len(recs) > 0 { // an empty answer stays "records":null
		resp.Records = recs
	}
	s.writeJSONWith(w, rb, http.StatusOK, resp)
}

// WindowResponse carries a windowed aggregate, the plan that produced it
// (how many segments the zone maps pruned, rows scanned), and the
// simulated latency.
type WindowResponse struct {
	Column    string        `json:"column"`
	Aggregate ddi.Agg       `json:"aggregate"`
	Plan      ddi.PlanStats `json:"plan"`
	LatencyMS float64       `json:"latencyMs"`
}

// handleWindow serves GET /api/v1/data/window: a windowed aggregate
// (count/min/max/mean) over one column, answered by the DDI query
// planner from zone maps and column reads — no Record is built and
// nothing is promoted into the cache, which is why it runs under the read
// tier, unlike /data/query whose cache promotion mutates.
func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoDDI)
		return
	}
	qs := r.URL.RawQuery
	q := ddi.Query{Source: ddi.Source(queryGet(qs, "source"))}
	var err error
	if q.From, err = parseSeconds(queryGet(qs, "from")); err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	if q.To, err = parseSeconds(queryGet(qs, "to")); err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	colName := queryGet(qs, "column")
	if colName == "" {
		colName = "at"
	}
	col, ok := ddi.ParseColumn(colName)
	if !ok {
		s.writeErrRes(w, http.StatusBadRequest, fmt.Errorf("bad column %q", colName))
		return
	}
	agg, stats, latency, err := s.store.Aggregate(s.clock(), q, col)
	if err != nil {
		s.writeErrRes(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, WindowResponse{
		Column:    col.String(),
		Aggregate: agg,
		Plan:      stats,
		LatencyMS: float64(latency) / float64(time.Millisecond),
	})
}

// parseSeconds reads a query-string time in seconds. ParseFloat accepts
// NaN, Inf and magnitudes whose nanosecond count overflows int64 (the
// conversion then yields math.MinInt64), so the range check is on the
// product and written to fail for NaN.
func parseSeconds(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	ns := v * float64(time.Second)
	if err != nil || !(ns >= 0 && ns < 1<<63) {
		return 0, fmt.Errorf("bad time %q (want non-negative seconds)", s)
	}
	return time.Duration(ns), nil
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	if s.sharing == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoSharing)
		return
	}
	s.writeJSON(w, http.StatusOK, s.sharing.Topics())
}

// PublishRequest is the body of POST /sharing/publish. The service token
// travels in the X-VDAP-Token header.
type PublishRequest struct {
	Service string `json:"service"`
	Topic   string `json:"topic"`
	Payload []byte `json:"payload"`
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	if s.sharing == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoSharing)
		return
	}
	rb := getReply()
	defer putReply(rb)
	var req PublishRequest
	body, readErr := readBody(w, r, rb)
	if err := decodeJSON(body, readErr, &req); err != nil {
		s.writeErrRes(w, decodeStatus(err), err)
		return
	}
	token := r.Header.Get("X-VDAP-Token")
	if err := s.sharing.Publish(req.Service, token, req.Topic, s.clock(), req.Payload); err != nil {
		s.writeErrRes(w, http.StatusForbidden, err)
		return
	}
	s.writeJSONWith(w, rb, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	if s.sharing == nil {
		s.writeErrRes(w, http.StatusServiceUnavailable, errNoSharing)
		return
	}
	qs := r.URL.RawQuery
	service := queryGet(qs, "service")
	topic := queryGet(qs, "topic")
	since, err := parseSeconds(queryGet(qs, "since"))
	if err != nil {
		s.writeErrRes(w, http.StatusBadRequest, err)
		return
	}
	token := r.Header.Get("X-VDAP-Token")
	msgs, err := s.sharing.Fetch(service, token, topic, since)
	if err != nil {
		s.writeErrRes(w, http.StatusForbidden, err)
		return
	}
	s.writeJSON(w, http.StatusOK, msgs)
}
