package libvdap

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// cachedRoutes pairs each watermark-cached route with its CacheStats key
// and a query-carrying variant that bypasses the cache with the same value.
var cachedRoutes = []struct{ name, path, bypass string }{
	{"status", "/api/v1/status", "/api/v1/status?nocache=1"},
	{"metrics", "/api/v1/metrics", "/api/v1/metrics?nocache=1"},
	{"series", "/api/v1/metrics/series", "/api/v1/metrics/series?since="},
	{"events", "/api/v1/events", "/api/v1/events?since="},
}

// serve runs one GET through ServeHTTP in process with the given
// Accept-Encoding ("" sends none).
func serve(srv *Server, path, acceptEncoding string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// decoded returns the reply's body with its content coding undone, after
// checking that the framing headers tell the truth about it.
func decoded(rec *httptest.ResponseRecorder) ([]byte, error) {
	raw := rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		return nil, fmt.Errorf("Content-Length %q on a %d-byte body", cl, len(raw))
	}
	switch enc := rec.Header().Get("Content-Encoding"); enc {
	case "":
		return raw, nil
	case "gzip":
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		return io.ReadAll(zr) // the trailing CRC fails a torn or mixed body
	default:
		return nil, fmt.Errorf("Content-Encoding %q", enc)
	}
}

func TestAcceptsGzip(t *testing.T) {
	for _, tc := range []struct {
		lines []string
		want  bool
	}{
		{nil, false},
		{[]string{""}, false},
		{[]string{"gzip"}, true},
		{[]string{"GZip"}, true},
		{[]string{"deflate, gzip"}, true},
		{[]string{"deflate", "br , gzip ; q=0.5"}, true},
		{[]string{"gzip;q=1.0, identity;q=0.5"}, true},
		{[]string{"gzip;q=0"}, false},
		{[]string{"gzip; Q=0.000"}, false},
		{[]string{"gzip;q=bogus"}, false},
		{[]string{"x-gzip-foo"}, false},
		{[]string{"notgzip, gzipped"}, false},
		{[]string{"identity"}, false},
		{[]string{"deflate, br"}, false},
		{[]string{"*"}, true},
		{[]string{"*;q=0"}, false},
		{[]string{"br, *;q=0.1"}, true},
		{[]string{"*, gzip;q=0"}, false},
		{[]string{"gzip, *;q=0"}, true},
	} {
		if got := acceptsGzip(tc.lines); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.lines, got, tc.want)
		}
	}
}

// naiveAcceptsGzip is the reference FuzzAcceptsGzip holds acceptsGzip to,
// written the slow obvious way: flatten the header lines into one list of
// elements, then the first element naming gzip decides by its weight, else
// the last one naming "*" does, else identity.
func naiveAcceptsGzip(lines []string) bool {
	var elems []string
	for _, line := range lines {
		elems = append(elems, strings.Split(line, ",")...)
	}
	coding := func(elem string) string {
		if i := strings.IndexByte(elem, ';'); i >= 0 {
			elem = elem[:i]
		}
		return strings.TrimSpace(elem)
	}
	weightOK := func(elem string) bool {
		i := strings.IndexByte(elem, ';')
		if i < 0 {
			return true
		}
		weight := strings.ToLower(strings.TrimSpace(elem[i+1:]))
		if !strings.HasPrefix(weight, "q=") {
			return true
		}
		q, err := strconv.ParseFloat(weight[2:], 64)
		return err == nil && q > 0
	}
	for _, elem := range elems {
		if strings.ToLower(coding(elem)) == "gzip" {
			return weightOK(elem)
		}
	}
	for i := len(elems) - 1; i >= 0; i-- {
		if coding(elems[i]) == "*" {
			return weightOK(elems[i])
		}
	}
	return false
}

// FuzzAcceptsGzip: whatever a client puts in Accept-Encoding — any bytes,
// on one header line or split over two — acceptsGzip never panics, agrees
// with the naive reference, and reads two lines as it reads them joined by
// a comma (a header repeated is a header continued). The seed corpus is
// testdata/fuzz/FuzzAcceptsGzip.
func FuzzAcceptsGzip(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, lines := range [][]string{{a}, {b}, {a, b}} {
			if got, want := acceptsGzip(lines), naiveAcceptsGzip(lines); got != want {
				t.Fatalf("acceptsGzip(%q) = %v, reference says %v", lines, got, want)
			}
		}
		if split, joined := acceptsGzip([]string{a, b}), acceptsGzip([]string{a + "," + b}); split != joined {
			t.Fatalf("acceptsGzip(%q, %q) = %v on two lines, %v joined", a, b, split, joined)
		}
	})
}

// TestNegotiatingErrorsAreIdentity: a negotiating route decides its coding
// when it writes the 200, so the error replies of the same routes go out as
// plain JSON with Content-Length whatever the client accepts.
func TestNegotiatingErrorsAreIdentity(t *testing.T) {
	_, srv, _, _ := newCachedServer(t)
	bare, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}

	// A build parked inside the status cache fills its backlog of one, so
	// the next miss is shed with errBusy.
	srv.statusCache = newWMCache(1)
	enter, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		srv.statusCache.get(srv.clock(), func() ([]byte, error) {
			close(enter)
			<-release
			return []byte("{}\n"), nil
		})
	}()
	<-enter
	defer func() { close(release); <-done }()

	for _, tc := range []struct {
		what string
		srv  *Server
		path string
		code int
	}{
		{"rebuild backlog shed", srv, "/api/v1/status", http.StatusServiceUnavailable},
		{"bad since", srv, "/api/v1/metrics/series?since=yesterday", http.StatusBadRequest},
		{"bad since", srv, "/api/v1/events?since=-3", http.StatusBadRequest},
		{"not attached", bare, "/api/v1/metrics", http.StatusServiceUnavailable},
		{"not attached", bare, "/api/v1/trace", http.StatusServiceUnavailable},
	} {
		rec := serve(tc.srv, tc.path, "gzip")
		if rec.Code != tc.code {
			t.Errorf("%s %s: status %d, want %d", tc.what, tc.path, rec.Code, tc.code)
		}
		if enc := rec.Header().Get("Content-Encoding"); enc != "" {
			t.Errorf("%s %s: error reply has Content-Encoding %q", tc.what, tc.path, enc)
		}
		body, err := decoded(rec)
		if err != nil {
			t.Errorf("%s %s: %v", tc.what, tc.path, err)
		}
		var apiErr apiError
		if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error == "" {
			t.Errorf("%s %s: body %q is not a JSON error (%v)", tc.what, tc.path, body, err)
		}
	}
	if st := srv.statusCache.stat(); st.Shed != 1 {
		t.Fatalf("status cache stats = %+v, want one shed", st)
	}
}

// TestEncodeOnceDifferential: at every watermark each cached route's gzip
// reply gunzips to exactly its identity reply, both carry the same JSON as
// the cache-bypassing variant, and however many clients read compressed the
// entry is compressed once.
func TestEncodeOnceDifferential(t *testing.T) {
	_, srv, reg, now := newCachedServer(t)
	const watermarks = 3
	for wm := 1; wm <= watermarks; wm++ {
		now.Store(int64(time.Duration(wm) * time.Second))
		for _, route := range cachedRoutes {
			// The bypass goes first: it moves no counter, so the metrics
			// snapshot the cached request then builds sees the same state.
			direct, err := decoded(serve(srv, route.bypass, "gzip"))
			if err != nil {
				t.Fatalf("%s wm=%d: %v", route.bypass, wm, err)
			}
			identity, err := decoded(serve(srv, route.path, ""))
			if err != nil {
				t.Fatalf("%s wm=%d identity: %v", route.path, wm, err)
			}
			for i := 0; i < 3; i++ {
				rec := serve(srv, route.path, "deflate, gzip;q=0.8")
				if rec.Header().Get("Content-Encoding") != "gzip" || rec.Header().Get("Vary") != "Accept-Encoding" {
					t.Fatalf("%s wm=%d: gzip reply headers %v", route.path, wm, rec.Header())
				}
				unzipped, err := decoded(rec)
				if err != nil {
					t.Fatalf("%s wm=%d gzip: %v", route.path, wm, err)
				}
				if !bytes.Equal(unzipped, identity) {
					t.Fatalf("%s wm=%d: gunzip(gzip reply) differs from the identity reply:\n%s\n%s", route.path, wm, unzipped, identity)
				}
			}
			var dv, cv any
			if err := json.Unmarshal(direct, &dv); err != nil {
				t.Fatalf("%s wm=%d: %v", route.bypass, wm, err)
			}
			if err := json.Unmarshal(identity, &cv); err != nil {
				t.Fatalf("%s wm=%d: %v", route.path, wm, err)
			}
			if !reflect.DeepEqual(dv, cv) {
				t.Fatalf("%s wm=%d: cached JSON differs from %s:\n%s\n%s", route.path, wm, route.bypass, identity, direct)
			}
		}
	}
	for _, route := range cachedRoutes {
		st := srv.CacheStats()[route.name]
		if st.Misses != watermarks || st.GzipBuilds != watermarks || st.Hits != 3*watermarks {
			t.Fatalf("cache %s = %+v, want %d misses, %d gzip builds, %d hits", route.name, st, watermarks, watermarks, 3*watermarks)
		}
	}
	if got := reg.Snapshot().Counters["libvdap.cache.gzip_builds"]; got != 4*watermarks {
		t.Fatalf("libvdap.cache.gzip_builds = %v, want %d", got, 4*watermarks)
	}
}

// TestEncodeOnceUnderRace hammers all four cached routes with readers of
// both encodings while Advance moves the watermark. Every reply must frame
// and decode cleanly (the gzip CRC catches a torn or mixed body), status
// must report a watermark that was published, and a route may show no more
// distinct bodies than it had cache misses — so a reader never sees
// anything but a published entry, in either representation — with at most
// one compression per miss.
func TestEncodeOnceUnderRace(t *testing.T) {
	_, srv, _, now := newCachedServer(t)
	const lastWM = 8
	valid := map[float64]bool{}
	for wm := 1; wm <= lastWM; wm++ {
		valid[(time.Duration(wm) * time.Second).Seconds()] = true
	}
	var mu sync.Mutex
	seen := map[string]map[string]bool{}
	for _, route := range cachedRoutes {
		seen[route.name] = map[string]bool{}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 8; i++ {
		accept := []string{"", "gzip"}[i%2]
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				route := cachedRoutes[k%len(cachedRoutes)]
				rec := serve(srv, route.path, accept)
				if rec.Code != http.StatusOK {
					continue // shed under backlog is legal
				}
				if gz := rec.Header().Get("Content-Encoding") == "gzip"; gz != (accept == "gzip") {
					t.Errorf("%s Accept-Encoding %q answered with gzip=%v", route.path, accept, gz)
					return
				}
				body, err := decoded(rec)
				if err != nil {
					t.Errorf("%s: %v", route.path, err)
					return
				}
				var doc struct {
					VirtualTime float64 `json:"virtualTime"`
				}
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Errorf("%s torn body %q: %v", route.path, body, err)
					return
				}
				if route.name == "status" && !valid[doc.VirtualTime] {
					t.Errorf("impossible virtualTime %v", doc.VirtualTime)
					return
				}
				mu.Lock()
				seen[route.name][string(body)] = true
				mu.Unlock()
			}
		}()
	}
	for wm := 2; wm <= lastWM; wm++ {
		time.Sleep(2 * time.Millisecond)
		srv.Advance(func() error {
			now.Store(int64(time.Duration(wm) * time.Second))
			return nil
		})
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	readers.Wait()

	for _, route := range cachedRoutes {
		st := srv.CacheStats()[route.name]
		// Misses may exceed the watermark count: a reader that read the clock
		// just before an Advance republishes the older key.
		if st.GzipBuilds > st.Misses || st.GzipBuilds == 0 {
			t.Errorf("cache %s = %+v: want gzip builds in [1, misses]", route.name, st)
		}
		if n := int64(len(seen[route.name])); n > st.Misses {
			t.Errorf("cache %s: readers saw %d distinct bodies from %d published entries", route.name, n, st.Misses)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so the allocation
// test below measures the server and not a recorder's body buffer.
type discardWriter struct {
	header http.Header
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestWarmGzipHitAllocs is the portable guard on the hit path: a warm gzip
// hit through ServeHTTP performs a small fixed number of allocations (the
// Content-Length value: its string, unless the length is below 100, and
// its slice) and a few hundred bytes of them — three orders of magnitude
// below the ~800 KB of one flate compressor — and builds nothing. Measured
// on a 2-core x86-64 host, with and without -race: 1–2 per route (5–6
// while every header value was Set per reply). The budget is the first
// whole number above the -race figure plus 15 %.
func TestWarmGzipHitAllocs(t *testing.T) {
	_, srv, _, _ := newCachedServer(t)
	for _, route := range cachedRoutes {
		req := httptest.NewRequest(http.MethodGet, route.path, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		w := &discardWriter{header: http.Header{}}
		hit := func() {
			clear(w.header)
			req.URL.Path = route.path // ServeHTTP folds /v1 into /api/v1 in place
			srv.ServeHTTP(w, req)
		}
		hit() // the miss: marshal and compress
		if want := serve(srv, route.path, "gzip").Body.Len(); w.n != want || want == 0 {
			t.Fatalf("%s: wrote %d bytes, a recorded gzip reply has %d", route.path, w.n, want)
		}
		before := srv.CacheStats()[route.name]

		const budget, byteBudget = 3, 1024
		n := testing.AllocsPerRun(200, hit)
		t.Logf("%s: %.0f allocations per warm gzip hit", route.path, n)
		if n > budget {
			t.Errorf("%s: %.0f allocations per warm gzip hit, budget %d", route.path, n, budget)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const runs = 200
		for i := 0; i < runs; i++ {
			hit()
		}
		runtime.ReadMemStats(&m1)
		if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > byteBudget {
			t.Errorf("%s: %d bytes allocated per warm gzip hit, budget %d", route.path, per, byteBudget)
		}

		after := srv.CacheStats()[route.name]
		if after.Misses != before.Misses || after.GzipBuilds != before.GzipBuilds || after.GzipBuilds != 1 {
			t.Errorf("%s: warm hits moved the cache from %+v to %+v", route.path, before, after)
		}
	}
}
