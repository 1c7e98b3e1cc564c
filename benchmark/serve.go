package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/libvdap"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/tasks"
)

const (
	serveConns    = 2 // keep-alive connections, one goroutine each
	serveModel    = "cbeam"
	modelFeatures = 8
)

// serveSpec is what differs between the two serve workloads. Cap is the
// workload's closed-loop capacity as a constant (scale.go); the open loop
// sends at openLoopShare of it and the max-rate sweep at 0.25, 0.5 and 1
// times it. Limit is the p99 budget of the sweep: 20 ms from due time, and
// 200 ms for the snapshot routes, because a gzipped series reply alone has a
// median of 10 ms here and one queued behind another is past 20 ms at any
// rate.
type serveSpec struct {
	Name    string
	Routes  []string
	Preload int
	Cap     float64
	Limit   time.Duration
}

// serveTailPct is the tail percentile of both serve workloads: the open loop
// sends a thousand requests or more, so p99 keeps ten samples beyond it.
const serveTailPct = 99

func (s serveSpec) rate() float64 { return openLoopShare * s.Cap }

// servePlatform is a platform assembled the way cmd/vdapd assembles it,
// warmed, and served over loopback TCP with vdapd's tick loop beside it.
type servePlatform struct {
	p      *core.Platform
	dir    string
	span   time.Duration // virtual time the warm-up covered
	srv    *http.Server
	base   string
	client *http.Client
	tick   *tickLoop
}

// newServePlatform builds and warms the platform: the paper's four services,
// collection every virtual second, metric sampling, and WarmVirtual of
// history under the E18 fault plan so the series and event rings are full
// and body sizes are stationary. The plan's horizon ends with the warm-up:
// while requests are timed no site fails, so no invocation a client asks for
// can fail for a reason the client did not cause. preload records go in
// through DDI.Upload, spread over the warm-up so that time windows select
// them.
func newServePlatform(ctx *runCtx, preload int) (*servePlatform, error) {
	dir, err := ctx.tempDir("serve")
	if err != nil {
		return nil, err
	}
	sp := &servePlatform{dir: dir, span: ctx.sc.WarmVirtual}
	ok := false
	defer func() {
		if !ok {
			sp.close()
		}
	}()
	cfg := core.DefaultConfig(dir)
	cfg.Seed = ctx.seed
	cfg.Faults = faultPlan(ctx.sc.WarmVirtual)
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	sp.p = p
	services := []*edgeos.Service{
		{Name: "pedestrian-alert", Priority: edgeos.PrioritySafety, Deadline: 500 * time.Millisecond,
			DAG: tasks.PedestrianAlert(), TEE: true, Image: []byte("pedestrian-alert-v1")},
		{Name: "real-time-diagnostics", Priority: edgeos.PriorityInteractive, Deadline: 2 * time.Second,
			DAG: tasks.Diagnostics(), Image: []byte("diagnostics-v1")},
		{Name: "infotainment", Priority: edgeos.PriorityBackground,
			DAG: tasks.InfotainmentDecode(), Image: []byte("infotainment-v1")},
		{Name: fleetService, Priority: edgeos.PriorityInteractive, Deadline: 2 * time.Second,
			DAG: tasks.ALPR(), Image: []byte("mobile-a3-v1")},
	}
	for _, s := range services {
		if err := p.InstallService(s); err != nil {
			return nil, fmt.Errorf("install %s: %w", s.Name, err)
		}
	}
	if err := p.StartCollection(time.Second); err != nil {
		return nil, err
	}
	if err := p.StartSampling(0); err != nil {
		return nil, err
	}
	mlp, err := models.NewMLP([]int{modelFeatures, 16, 4}, sim.NewStream(ctx.seed, streamHTTP-1))
	if err != nil {
		return nil, err
	}
	if err := p.Registry().RegisterMLP(serveModel, libvdap.KindDrivingBehavior, mlp, false, false, 0.05); err != nil {
		return nil, err
	}

	steps := int(ctx.sc.WarmVirtual / time.Second)
	payload := []byte(`{"v":1234,"s":56}`)
	rng := sim.NewStream(ctx.seed, streamCorpus)
	uploaded := 0
	for step := 0; step < steps; step++ {
		target := time.Duration(step+1) * time.Second
		if err := p.AdvanceTo(target); err != nil {
			return nil, err
		}
		if step%5 == 0 {
			for _, s := range services {
				// A faulted site may refuse the invocation; the event it
				// leaves in the flight recorder is what the warm-up is for.
				p.InvokeService(s.Name)
			}
		}
		want := preload * (step + 1) / steps
		for j, n := 0, want-uploaded; j < n; j++ {
			at := target - time.Second + time.Duration(j)*time.Second/time.Duration(n)
			if _, err := p.DDI().Upload(at, ddi.SourceUser, rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000), payload); err != nil {
				return nil, err
			}
		}
		uploaded = want
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sp.base = "http://" + ln.Addr().String()
	sp.srv = &http.Server{Handler: p.API(), ReadHeaderTimeout: 5 * time.Second}
	go sp.srv.Serve(ln)
	sp.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true, // the client sets Accept-Encoding itself and does not decompress
		},
		Timeout: 30 * time.Second,
	}
	sp.tick = startTickLoop(p)
	ok = true
	return sp, nil
}

// close stops the tick loop and the server and removes the store directory;
// it is safe on a half-built platform.
func (sp *servePlatform) close() {
	if sp.tick != nil {
		sp.tick.stop()
	}
	if sp.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if sp.p != nil {
			sp.p.Server().Shutdown(ctx)
		}
		if err := sp.srv.Shutdown(ctx); err != nil {
			sp.srv.Close()
		}
		cancel()
		sp.client.CloseIdleConnections()
	}
	if sp.p != nil {
		sp.p.Close()
	}
	os.RemoveAll(sp.dir)
}

// tickLoop is vdapd's run loop: every tickWall of wall clock it advances the
// platform by tickStep of virtual time under the API server's run lock. It
// is part of the program under test, not of the load generator.
type tickLoop struct {
	quit chan struct{}
	done chan struct{}
	err  error

	busy []float64 // ms each AdvanceTo held the run lock
	lag  []float64 // ms each tick ran after it was due
}

func startTickLoop(p *core.Platform) *tickLoop {
	t := &tickLoop{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		ticker := time.NewTicker(tickWall)
		defer ticker.Stop()
		next := time.Now().Add(tickWall)
		for {
			select {
			case <-t.quit:
				return
			case <-ticker.C:
				t0 := time.Now()
				if err := p.AdvanceTo(p.Engine().Now() + tickStep); err != nil {
					t.err = err
					return
				}
				t.busy = append(t.busy, inMS(time.Since(t0)))
				if late := t0.Sub(next); late > 0 {
					t.lag = append(t.lag, inMS(late))
				} else {
					t.lag = append(t.lag, 0)
				}
				next = next.Add(tickWall)
			}
		}
	}()
	return t
}

// stop ends the loop and waits for it; the samples are safe to read after.
func (t *tickLoop) stop() {
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	<-t.done
}

// routeStats is one connection's per-route tally.
type routeStats struct {
	rttUS []float64
	bytes int64
	count int64
}

// httpDriver issues pre-built requests over the platform's keep-alive
// connections and checks every reply.
type httpDriver struct {
	sp     *servePlatform
	tables [][]httpReq    // per connection
	bufs   [][]byte       // per connection read buffer
	routes [][]routeStats // per connection, per route
	names  []string       // route names
	sizes  bool           // report bytes per reply (the snapshot routes)
	spans  []string       // span name per route
	lanes  []*lane        // per connection, nil unless traced

	// uploads remembers, per connection, which table entry produced which
	// record ID, for the read-back check (a small ring).
	uploads [][]uploadRef
}

type uploadRef struct {
	entry int
	id    uint64
}

func newHTTPDriver(ctx *runCtx, sp *servePlatform, spec serveSpec, tables [][]httpReq) *httpDriver {
	names := spec.Routes
	d := &httpDriver{sp: sp, tables: tables, names: names, sizes: spec.Preload == 0}
	for _, n := range names {
		d.spans = append(d.spans, "libvdap."+n+".rtt")
	}
	for range tables {
		d.bufs = append(d.bufs, make([]byte, 64<<10))
		d.routes = append(d.routes, make([]routeStats, len(names)))
		d.lanes = append(d.lanes, ctx.rec.lane())
		d.uploads = append(d.uploads, nil)
	}
	return d
}

// issue is the issuer of the load loops: request k of connection conn is
// entry k mod table size. A reply is correct when it is 200, non-empty, and
// gzip-framed if it says it is.
func (d *httpDriver) issue(conn, k int) bool {
	entry := k % len(d.tables[conn])
	req := &d.tables[conn][entry]
	ln := d.lanes[conn]
	s := ln.begin(d.spans[req.Route], int64(k))
	t0 := time.Now()
	n, head, gz, err := d.roundTrip(req, d.bufs[conn])
	rtt := time.Since(t0)
	ln.end(s)
	rs := &d.routes[conn][req.Route]
	rs.count++
	rs.bytes += int64(n)
	rs.rttUS = append(rs.rttUS, inUS(rtt))
	if err != nil || n == 0 {
		return false
	}
	if gz && (n < 2 || head[0] != 0x1f || head[1] != 0x8b) {
		return false
	}
	if req.Method == "POST" && d.names[req.Route] == "upload" {
		id, ok := parseUploadID(d.bufs[conn][:min(n, 256)])
		if !ok {
			return false
		}
		ring := d.uploads[conn]
		if len(ring) < 64 {
			d.uploads[conn] = append(ring, uploadRef{entry, id})
		} else {
			ring[k%64] = uploadRef{entry, id}
		}
	}
	return true
}

// roundTrip sends one request and drains the reply through buf, which keeps
// only the start of the body (the rest is counted and dropped). It returns
// the body length, its first two bytes, and whether the server said the body
// is gzipped.
func (d *httpDriver) roundTrip(req *httpReq, buf []byte) (n int, head [2]byte, gz bool, err error) {
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequest(req.Method, d.sp.base+req.Path, body)
	if err != nil {
		return 0, head, false, err
	}
	hr.Header.Set("Accept-Encoding", "gzip")
	if req.Body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.sp.client.Do(hr)
	if err != nil {
		return 0, head, false, err
	}
	defer resp.Body.Close()
	// Fill the head of buf first, then reuse its tail as a bit bucket.
	const keep = 256
	for {
		into := buf[min(n, keep):]
		m, rerr := resp.Body.Read(into)
		n += m
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return n, head, false, rerr
		}
	}
	copy(head[:], buf[:min(n, 2)])
	if resp.StatusCode != http.StatusOK {
		return n, head, false, fmt.Errorf("%s %s: status %d", req.Method, req.Path, resp.StatusCode)
	}
	return n, head, resp.Header.Get("Content-Encoding") == "gzip", nil
}

// parseUploadID reads the id out of `{"id":123}`.
func parseUploadID(body []byte) (uint64, bool) {
	i := bytes.Index(body, []byte(`"id":`))
	if i < 0 {
		return 0, false
	}
	var id uint64
	digits := 0
	for _, c := range body[i+5:] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
		digits++
	}
	return id, digits > 0
}

func runServeSnapshot(ctx *runCtx) (*result, error) {
	return runServe(ctx, serveSpec{"serve_snapshot", snapshotRoutes, 0, ctx.sc.SnapshotCap, 200 * time.Millisecond})
}

func runServeData(ctx *runCtx) (*result, error) {
	return runServe(ctx, serveSpec{"serve_data", dataRoutes, ctx.sc.Preload, ctx.sc.DataCap, 20 * time.Millisecond})
}

func runServe(ctx *runCtx, spec serveSpec) (*result, error) {
	res := newResult(spec.Name, ctx.seed, ctx.traced)
	routes, preload := spec.Routes, spec.Preload

	// Set-up, repeated for a steady median; the last platform is measured.
	var sp *servePlatform
	var setups []float64
	for ctx.setUpAgain(setups) {
		if sp != nil {
			sp.close()
		}
		sw := startStopwatch()
		var err error
		if sp, err = newServePlatform(ctx, preload); err != nil {
			return nil, err
		}
		setups = append(setups, sw.seconds())
	}
	defer sp.close()

	tables := make([][]httpReq, serveConns)
	for c := range tables {
		if preload > 0 {
			var err error
			if tables[c], err = dataRequests(ctx.seed, c, sp.span, serveModel, modelFeatures); err != nil {
				return nil, err
			}
		} else {
			tables[c] = snapshotRequests(ctx.seed, c)
		}
	}
	d := newHTTPDriver(ctx, sp, spec, tables)
	// Warm the connections and the server's caches before timing.
	closedLoop(serveConns, ctx.seconds/50, 0, d.issue, nil)
	for c := range d.routes {
		d.routes[c] = make([]routeStats, len(routes))
	}

	var err error
	if ctx.traced {
		err = serveTraced(ctx, res, sp, d, spec)
	} else {
		serveMeasured(ctx, res, d, spec, setups)
	}
	if err != nil {
		return nil, err
	}
	serveChecks(res, sp, d)
	if ctx.traced {
		// With the tick loop stopped, so a slow export cannot starve it.
		if err := serveProbes(ctx, sp, res.Layer); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveMeasured is the end-to-end pass. Phase A, closed loop on two
// connections, gives throughput, CPU and allocation per op, and the median
// latency: with both connections always busy a host stall delays the requests
// in flight and no others. Phase B, open loop at a fixed rate on the same two
// connections, times each request from its due time, so a stall is charged to
// every request it delays; that is the right clock for the tail, and on a
// shared host it is far too jumpy for the median (queueing multiplies every
// stall, and an idle virtual CPU wakes late), so the tail alone comes from it.
//
// The routes of a uniform mix fall into latency clusters an order of magnitude
// apart, and the median request of the whole mix sits on the boundary between
// two of them: it says nothing about the routes on either side (series, on
// serve_snapshot) and can jump from one cluster to the other between runs
// (serve_data). The median latency is therefore taken per route and op_p50_ms
// is the mean of the routes' medians: what a caller that draws its requests
// from the mix waits for a typical one, moved by every route in proportion to
// its latency.
func serveMeasured(ctx *runCtx, res *result, d *httpDriver, spec serveSpec, setups []float64) {
	m := newMeter()
	m.resume()
	a := closedLoop(serveConns, ctx.seconds*3/5, ctx.seconds/40, d.issue, m.mark)
	m.pause()
	res.note("closed loop %s", d.routeStats(res.Layer)) // before the open loop adds its own
	b := openLoop(serveConns, spec.rate(), ctx.seconds*2/5, d.issue, nil)

	res.Attempted = a.Attempted + b.Attempted
	res.Failed = a.Failed + b.Failed
	closed, open := summarise(a.Lat, 99), summarise(b.Lat, serveTailPct)
	lat := open
	lat.Min, lat.P10, lat.P25 = closed.Min, closed.P10, closed.P25
	lat.P50 = 0
	for _, name := range d.names {
		lat.P50 += res.Layer["libvdap."+name+".rtt_us_p50"] / 1000 / float64(len(d.names))
	}
	res.window(m, lat, setups)
	lag := summarise(b.Lag, 99)
	res.Layer["loadgen.sched_lag_ms_p99"] = lag.Tail
	res.Layer["loadgen.busy_frac"] = float64(b.Busy) / float64(b.Wall) / serveConns
	res.note("closed loop: %d ops on %d connections in %v, p50 of the whole mix %.4f ms; open loop: %d ops at %.0f req/s, p50 %.4f ms from due time, send lag p99 %.3f ms, end backlog %v",
		a.Attempted, serveConns, a.Wall, closed.P50, b.Attempted, spec.rate(), open.P50, lag.Tail, b.EndLag)
	d.serverStats(res.Layer)
}

// serveTraced is the per-layer pass: an untraced closed-loop slice for the
// overhead reference, then traced closed and open phases, the max-rate
// sweep, the in-process handler timings and the probes.
func serveTraced(ctx *runCtx, res *result, sp *servePlatform, d *httpDriver, spec serveSpec) error {
	L, rate := res.Layer, spec.rate()
	lanes := d.lanes
	d.lanes = make([]*lane, len(lanes)) // untraced reference
	sw := startStopwatch()
	ref := closedLoop(serveConns, ctx.seconds/5, 0, d.issue, nil)
	refRate := float64(ref.Attempted) / sw.seconds()
	d.lanes = lanes
	for c := range d.routes {
		d.routes[c] = make([]routeStats, len(d.names))
	}

	roots := make([]int32, len(lanes))
	for c, ln := range lanes {
		roots[c] = ln.begin("workload", -1)
	}
	sw = startStopwatch()
	a := closedLoop(serveConns, ctx.seconds/5, 0, d.issue, nil)
	tracedRate := float64(a.Attempted) / sw.seconds()
	// As long as the untraced pass's open loop: p99 needs its thousand samples.
	b := openLoop(serveConns, rate, ctx.seconds*2/5, d.issue, func(conn int, from, to time.Time) {
		lanes[conn].add("loadgen.idle", from, to, -1)
	})
	for c, ln := range lanes {
		ln.end(roots[c])
	}
	res.Attempted = a.Attempted + b.Attempted
	res.Failed = a.Failed + b.Failed
	L["trace.overhead_frac"] = 1 - tracedRate/refRate
	lat := summarise(b.Lat, serveTailPct)
	L["op_tail_ms"], L["op_tail_samples"] = lat.Tail, float64(lat.N)
	if lat.P50 > 0 {
		L["tail_over_p50"] = lat.Tail / lat.P50
	}
	lag := summarise(b.Lag, 99)
	L["loadgen.sched_lag_ms_p99"] = lag.Tail
	L["loadgen.busy_frac"] = float64(b.Busy) / float64(b.Wall) / serveConns
	d.routeStats(L)
	d.serverStats(L)

	// Highest of three fixed rates — a quarter, a half and the whole of the
	// closed-loop capacity constant — that keeps p99 from due time within the
	// limit without a backlog at the end.
	d.lanes = make([]*lane, len(lanes))
	for _, frac := range []float64{0.25, 0.5, 1} {
		sweep := openLoop(serveConns, spec.Cap*frac, ctx.sc.SweepSeconds, d.issue, nil)
		res.Attempted += sweep.Attempted
		res.Failed += sweep.Failed
		if sweep.sustains(serveTailPct, spec.Limit) {
			L["loadgen.max_rate_ok_rps"] = spec.Cap * frac
		}
	}

	// The same requests in process: handler cost without the transport.
	var handlerSum, rttSum float64
	for r, name := range d.names {
		var us []float64
		for i := 0; len(us) < ctx.sc.HandlerSamples && i < len(d.tables[0]); i++ {
			req := &d.tables[0][i]
			if req.Route != r {
				continue
			}
			t0 := time.Now()
			code := sp.inProcess(req, true).Code
			us = append(us, inUS(time.Since(t0)))
			if code != http.StatusOK {
				res.fail("in-process %s %s: status %d", req.Method, req.Path, code)
			}
		}
		sort.Float64s(us)
		h := percentile(us, 50)
		L["libvdap."+name+".handler_us_p50"] = h
		handlerSum += h
		rttSum += L["libvdap."+name+".rtt_us_p50"]
	}
	if rttSum > 0 {
		L["libvdap.transport_share"] = 1 - handlerSum/rttSum
	}
	res.note("traced closed loop %.0f op/s, untraced %.0f op/s", tracedRate, refRate)
	return nil
}

// inProcess runs one request through the platform's handler on a recorder.
func (sp *servePlatform) inProcess(req *httpReq, gzip bool) *httptest.ResponseRecorder {
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr := httptest.NewRequest(req.Method, req.Path, body)
	if gzip {
		hr.Header.Set("Accept-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	sp.p.API().ServeHTTP(rec, hr)
	return rec
}

// routeStats writes each route's median round trip and reply size since the
// tallies were last reset, and returns the same, with the counts, as a note.
func (d *httpDriver) routeStats(L map[string]float64) string {
	note := "routes:"
	for r, name := range d.names {
		var rtt []float64
		var bytes, count int64
		for c := range d.routes {
			rs := &d.routes[c][r]
			rtt = append(rtt, rs.rttUS...)
			bytes += rs.bytes
			count += rs.count
		}
		if len(rtt) > 0 {
			sort.Float64s(rtt)
			L["libvdap."+name+".rtt_us_p50"] = percentile(rtt, 50)
		}
		if count > 0 && d.sizes {
			L["libvdap."+name+".bytes_per_resp"] = float64(bytes) / float64(count)
		}
		note += fmt.Sprintf(" %s n=%d p50=%.0fus %dB;", name, count, L["libvdap."+name+".rtt_us_p50"], bytes/max(count, 1))
	}
	return note
}

// serverStats writes what the API server counted about itself.
func (d *httpDriver) serverStats(L map[string]float64) {
	srv := d.sp.p.Server()
	var hits, misses, shed int64
	for _, cs := range srv.CacheStats() {
		hits += cs.Hits
		misses += cs.Misses
		shed += cs.Shed
	}
	if hits+misses > 0 {
		L["libvdap.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	st := srv.Stats()
	L["libvdap.cache.shed_count"] = float64(shed)
	L["libvdap.rejected_count"] = float64(st.Rejected)
	L["libvdap.write_errors"] = float64(st.WriteErrors)
}

// serveChecks runs after the load: the tick loop's own health, then, with
// the loop stopped, cached-versus-uncached bodies and upload read-back.
func serveChecks(res *result, sp *servePlatform, d *httpDriver) {
	sp.tick.stop()
	if sp.tick.err != nil {
		res.fail("tick loop: %v", sp.tick.err)
	}
	L := res.Layer
	busy := append([]float64(nil), sp.tick.busy...)
	var total float64
	for _, b := range busy {
		total += b
	}
	L["core.advance.count"] = float64(len(busy))
	L["core.advance.busy_ms"] = total
	L["core.advance.p99_ms"] = summarise(busy, 99).Tail
	L["core.tick_lag_ms_p99"] = summarise(append([]float64(nil), sp.tick.lag...), 99).Tail

	// One fresh watermark, then for each snapshot route the cache-bypassing
	// variant first (it changes no counter) and the cached one second: both
	// are built from the same state and must decode to the same JSON.
	if err := sp.p.AdvanceTo(sp.p.Engine().Now() + tickStep); err != nil {
		res.fail("advance after run: %v", err)
		return
	}
	for _, path := range []string{"/api/v1/status", "/api/v1/metrics", "/api/v1/metrics/series", "/api/v1/events"} {
		direct := sp.inProcess(&httpReq{Method: "GET", Path: path + "?nocache=1"}, false)
		cached := sp.inProcess(&httpReq{Method: "GET", Path: path}, false)
		var dv, cv any
		if err := json.Unmarshal(direct.Body.Bytes(), &dv); err != nil {
			res.fail("%s?nocache=1: %v", path, err)
			continue
		}
		if err := json.Unmarshal(cached.Body.Bytes(), &cv); err != nil {
			res.fail("%s: %v", path, err)
			continue
		}
		if direct.Code != 200 || cached.Code != 200 || !reflect.DeepEqual(dv, cv) {
			res.fail("%s: cached body differs from the uncached one at the same watermark", path)
		}
	}

	// gzip ratio of the series body, while both forms are at hand.
	gz := sp.inProcess(&httpReq{Method: "GET", Path: "/api/v1/metrics/series"}, true)
	id := sp.inProcess(&httpReq{Method: "GET", Path: "/api/v1/metrics/series"}, false)
	if id.Body.Len() > 0 {
		L["libvdap.gzip_ratio"] = float64(gz.Body.Len()) / float64(id.Body.Len())
	}

	// Every remembered upload must read back with the payload it was sent.
	now := sp.p.Engine().Now()
	checked := 0
	for conn, ring := range d.uploads {
		for _, u := range ring {
			rec, _, err := sp.p.DDI().DownloadByID(now, u.id)
			if err != nil || !bytes.Equal(rec.Payload, uploadPayload(conn, u.entry)) {
				res.fail("upload %d of connection %d does not read back (err=%v)", u.id, conn, err)
			}
			checked++
		}
	}
	if checked > 0 {
		res.note("read back %d uploads", checked)
	}
}

// serveProbes times the bodies behind each cache miss and, on a platform of
// its own, DDI's front door beneath the libvdap handlers.
func serveProbes(ctx *runCtx, sp *servePlatform, L map[string]float64) error {
	n := ctx.sc.ProbeCalls / 20
	p := sp.p
	L["telemetry.snapshot.ns_per_call"], _ = probe(n, func(int) { p.Metrics().Snapshot() })
	L["telemetry.render.ns_per_call"], _ = probe(n, func(int) { _ = p.Metrics().Render() })
	L["obs.series_payload.ns_per_call"], _ = probe(n, func(int) { p.Series().Payload(-1) })
	L["obs.recorder_export.ns_per_call"], _ = probe(n, func(int) { p.FlightRecorder().Events() })
	var traceErr error
	L["trace.chrome_export.ns_per_call"], _ = probe(2, func(int) {
		if _, err := p.Tracer().ChromeTrace(); err != nil {
			traceErr = err
		}
	})
	if traceErr != nil {
		return traceErr
	}

	dir, err := ctx.tempDir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := core.DefaultConfig(dir)
	cfg.Seed = ctx.seed
	pp, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer pp.Close()
	store := pp.DDI()
	payload := []byte(`{"v":1234,"s":56}`)
	calls := ctx.sc.ProbeCalls * 10
	var ids []uint64
	var probeErr error
	L["ddi.upload.ns_per_call"], _ = probe(calls, func(i int) {
		rec, err := store.Upload(time.Duration(i)*time.Millisecond, ddi.SourceUser, float64(i%1000), 0, payload)
		if err != nil {
			probeErr = err
		}
		ids = append(ids, rec.ID)
	})
	span := time.Duration(calls) * time.Millisecond
	L["ddi.download.ns_per_call"], _ = probe(ctx.sc.ProbeCalls/4, func(i int) {
		from := time.Duration(i) * span / time.Duration(ctx.sc.ProbeCalls/4+1)
		if _, _, err := store.Download(span, ddi.Query{Source: ddi.SourceUser, From: from, To: from + 100*time.Millisecond, Limit: 100}); err != nil {
			probeErr = err
		}
	})
	L["ddi.aggregate.ns_per_call"], _ = probe(ctx.sc.ProbeCalls/4, func(i int) {
		from := time.Duration(i) * span / time.Duration(ctx.sc.ProbeCalls/4+1)
		if _, _, _, err := store.Aggregate(span, ddi.Query{From: from, To: from + 4*time.Second}, ddi.ColX); err != nil {
			probeErr = err
		}
	})
	// Point lookups, newest IDs first: what the memory tier is for.
	for i := 0; i < len(ids) && i < ctx.sc.ProbeCalls; i++ {
		if _, _, err := store.DownloadByID(span, ids[len(ids)-1-i]); err != nil {
			probeErr = err
		}
	}
	L["ddi.memcache.hit_ratio"] = store.Cache().HitRate()
	return probeErr
}
