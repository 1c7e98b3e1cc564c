package libvdap

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ddi"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// post runs one POST through ServeHTTP in process.
func post(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestPredictNonFiniteOutputIs400: finite but huge features drive the MLP
// to NaN probabilities. The registry refuses that answer, so the client
// gets a JSON 400 and the server counts no write error.
func TestPredictNonFiniteOutputIs400(t *testing.T) {
	srv := newDataRouteServer(t)
	features := make([]float64, models.FeatureDim)
	for i := range features {
		features[i] = 1e308
	}
	if _, _, err := srv.registry.Predict("cbeam", features); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("Predict on 1e308 features: err = %v, want a non-finite refusal", err)
	}
	body, _ := json.Marshal(PredictRequest{Features: features})
	rec := post(srv, "/api/v1/models/cbeam/predict", string(body))
	if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != jsonContentType {
		t.Fatalf("predict on 1e308 features = %d %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q does not decode: %v", rec.Body, err)
	}
	if n := srv.Stats().WriteErrors; n != 0 {
		t.Fatalf("a refused predict counted %d write errors", n)
	}
}

// TestEncodeFailureIsJSON500: a value with no JSON encoding is answered
// with the JSON-typed 500, framed like every other reply, and counted once
// with the write failures.
func TestEncodeFailureIsJSON500(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{Metrics: reg}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]any{"bad": func() {}})
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != jsonContentType {
		t.Fatalf("encode failure = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if body, err := decoded(rec); err != nil || string(body) != string(encodeFailed) {
		t.Fatalf("encode failure body %q (%v), want %q", body, err, encodeFailed)
	}
	if n := srv.Stats().WriteErrors; n != 1 {
		t.Fatalf("WriteErrors = %d, want 1", n)
	}
	if n := reg.Snapshot().Counters["libvdap.write_errors"]; n != 1 {
		t.Fatalf("libvdap.write_errors = %v, want 1", n)
	}
}

// TestDataRouteAllocs pins the allocations of one in-process /resources and
// one /data/query (two hits) through ServeHTTP, routing, the run lock and
// the reply headers included. Measured on a 2-core x86-64 host: resources 5
// and query 14 (50 and 18 while every reply was marshaled into a fresh
// slice, each query grew a fresh result slice and each profile built a
// throughput map); under -race, whose sync.Pool drops a quarter of its
// puts, 11–12 and 16–18. The bounds are the first whole numbers above the
// -race figures plus 15 %.
func TestDataRouteAllocs(t *testing.T) {
	srv := newDataRouteServer(t)
	for _, tc := range dataRouteRequests[:3] {
		if rec := post(srv, tc.path, tc.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.path, rec.Code, rec.Body)
		}
	}
	for _, tc := range []struct {
		path  string
		bound float64
	}{
		{"/api/v1/resources", 14},
		{"/api/v1/data/query?source=user&from=0&to=100", 21},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		w := &discardWriter{header: http.Header{}}
		serveOnce := func() {
			clear(w.header)
			srv.ServeHTTP(w, req)
		}
		serveOnce()
		if want := serve(srv, tc.path, "").Body.Len(); w.n != want {
			t.Fatalf("%s: wrote %d bytes, a recorded reply has %d", tc.path, w.n, want)
		}
		n := testing.AllocsPerRun(200, serveOnce)
		t.Logf("%s: %.0f allocs per request", tc.path, n)
		if n > tc.bound {
			t.Errorf("%s: %.0f allocs per request, want <= %.0f", tc.path, n, tc.bound)
		}
	}
}

// TestReplyPoolHygiene: a reply whose buffer grew past maxPooledReply (an
// unlimited query answering more than 64 KiB) is never handed out again,
// and a reply that goes back holds no record payload.
func TestReplyPoolHygiene(t *testing.T) {
	srv := newDataRouteServer(t)
	payload := strings.Repeat("A", 1000) // base64 of 750 bytes
	const uploads = 100
	for i := 0; i < uploads; i++ {
		body := fmt.Sprintf(`{"source":"user","x":%d,"y":0,"payload":%q}`, i, payload)
		if rec := post(srv, "/api/v1/data/upload", body); rec.Code != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	var big QueryResponse
	rec := serve(srv, "/api/v1/data/query?source=user&from=0&to=100&limit=0", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &big); err != nil || len(big.Records) != uploads || rec.Body.Len() <= maxPooledReply {
		t.Fatalf("big query: %d records in %d bytes (%v), want %d records past %d bytes",
			len(big.Records), rec.Body.Len(), err, uploads, maxPooledReply)
	}
	if rec := serve(srv, "/api/v1/data/query?source=user&from=0&to=100&limit=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("small query: %d %s", rec.Code, rec.Body)
	}
	// Take everything the pool holds on this P, and more.
	var held []*reply
	for i := 0; i < 64; i++ {
		rb := getReply()
		held = append(held, rb)
		if c := rb.buf.Cap(); c > maxPooledReply {
			t.Errorf("pooled reply %d has a %d-byte buffer, cap %d", i, c, maxPooledReply)
		}
		for j, r := range rb.recs[:cap(rb.recs)] {
			if r.Payload != nil || r.ID != 0 {
				t.Fatalf("pooled reply %d pins record scratch slot %d: id %d, %d payload bytes", i, j, r.ID, len(r.Payload))
			}
		}
	}
	for _, rb := range held {
		putReply(rb)
	}

	oversized := getReply()
	oversized.buf.Grow(2 * maxPooledReply)
	putReply(oversized)
	for i := 0; i < 64; i++ {
		if getReply() == oversized {
			t.Fatal("a reply past the cap went back into the pool")
		}
	}
	wide := getReply()
	wide.recs = make([]ddi.Record, 0, maxPooledReply)
	putReply(wide)
	for i := 0; i < 64; i++ {
		if getReply() == wide {
			t.Fatal("a reply with record scratch past the cap went back into the pool")
		}
	}
}

// FuzzPredictBody sends arbitrary bytes as the predict and the upload body.
// Whatever arrives, the reply is never a 500, is JSON-typed, and decodes:
// a 200 into its response type, anything else into an error message.
func FuzzPredictBody(f *testing.F) {
	for _, seed := range []string{
		`{"features":[0,0.5,1,-1,2,0.1,0.2,0.3]}`,
		`{"features":[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308]}`,
		`{"features":[-1e308,0,0,0,0,0,0,1e308]}`,
		`{"features":[1]}`,
		`{"source":"user","x":1,"y":2,"payload":"e30="}`,
		`{"source":"","x":1e308,"y":-1e308,"payload":"AA=="}`,
		`{"features":null}`,
		`[]`,
		`{`,
		"",
	} {
		f.Add([]byte(seed))
	}
	srv := newDataRouteServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []struct {
			path string
			ok   any
		}{
			{"/api/v1/models/cbeam/predict", &PredictResponse{}},
			{"/api/v1/data/upload", &UploadResponse{}},
		} {
			rec := post(srv, route.path, string(body))
			if rec.Code >= 500 {
				t.Fatalf("%s %q: %d %s", route.path, body, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != jsonContentType {
				t.Fatalf("%s %q: Content-Type %q", route.path, body, ct)
			}
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), route.ok); err != nil {
					t.Fatalf("%s %q: 200 body %q: %v", route.path, body, rec.Body, err)
				}
				continue
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s %q: %d body %q: %v", route.path, body, rec.Code, rec.Body, err)
			}
		}
	})
}
