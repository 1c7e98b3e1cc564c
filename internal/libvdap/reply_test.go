package libvdap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
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
	if _, _, err := srv.registry.Predict("cbeam", features, new(models.Scratch)); err == nil || !strings.Contains(err.Error(), "finite") {
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

// dataRouteAllocRequests is one request per serve_data route, shaped like
// the benchmark's: a query and a window over the golden script's uploads,
// the resource profiles, a predict on the cBEAM model, a service invoke and
// an upload (last, so the reads above answer the same records every run).
// bound is the route's allocation budget in TestDataRouteAllocs.
var dataRouteAllocRequests = []struct {
	route, method, path, body string
	bound                     float64
}{
	{"query", "GET", "/api/v1/data/query?source=user&from=0&to=100&limit=100", "", 9},
	{"window", "GET", "/api/v1/data/window?source=user&from=0&to=100&column=x", "", 9},
	{"resources", "GET", "/api/v1/resources", "", 13},
	{"predict", "POST", "/api/v1/models/cbeam/predict", `{"features":[0.5373,-0.1122,0.9012,-0.7771,0.0303,0.4242,-0.3141,0.2718]}`, 12},
	{"invoke", "POST", "/api/v1/services/kidnapper-search/invoke", "", 9},
	{"upload", "POST", "/api/v1/data/upload", `{"source":"user","x":-412.3456781,"y":17.25,"payload":"eyJjIjowLCJpIjo3fQ=="}`, 6},
}

// TestDataRouteAllocs pins the allocations of one in-process request on
// each serve_data route through ServeHTTP: routing, admission, the run
// lock, the body read, the handler and the reply headers. A discarding
// writer keeps a recorder's buffers out of the count. Measured on a 2-core
// x86-64 host, per route (query, window, resources, predict, invoke,
// upload): 3, 3, 4, 4, 4, 3, a mean of 3.50. The DDI's pooled read object
// took query from 8 and window from 6 (a mean of 4.83); before the
// raw-query reader, the read-up-front bodies, the model scratch and the
// shared header values they were 15, 13, 5, 22, 5, 12, a mean of 12.0.
// Under -race, whose sync.Pool drops a quarter of its puts, 6–7, 6–7,
// 9–11, 8–10, 6–7, 4–5 over 15 runs (before the pooled read object query
// 10–11 and window 8–9; before the raw-query reader and the rest 18,
// 15–16, 10–12, 24–25, 6–7, 13). Each bound is the first whole number above the route's -race
// maximum plus 15 %. Outside -race the mean over the six routes must stay
// at or below 4.2.
func TestDataRouteAllocs(t *testing.T) {
	srv := newDataRouteServer(t)
	for _, tc := range dataRouteRequests[:3] {
		if rec := post(srv, tc.path, tc.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.path, rec.Code, rec.Body)
		}
	}
	var sum float64
	for _, tc := range dataRouteAllocRequests {
		raw, body := []byte(tc.body), bytes.NewReader(nil)
		req := httptest.NewRequest(tc.method, tc.path, nil)
		req.Body = io.NopCloser(body)
		w := &discardWriter{header: http.Header{}}
		serveOnce := func() {
			clear(w.header)
			body.Reset(raw)
			srv.ServeHTTP(w, req)
		}
		serveOnce()
		want := httptest.NewRecorder()
		srv.ServeHTTP(want, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if want.Code != http.StatusOK || (tc.route != "upload" && w.n != want.Body.Len()) {
			t.Fatalf("%s: %d %s, wrote %d bytes", tc.route, want.Code, want.Body, w.n)
		}
		n := testing.AllocsPerRun(200, serveOnce)
		sum += n
		t.Logf("%s: %.2f allocs per request", tc.route, n)
		if n > tc.bound {
			t.Errorf("%s: %.2f allocs per request, want <= %.0f", tc.route, n, tc.bound)
		}
	}
	mean := sum / float64(len(dataRouteAllocRequests))
	t.Logf("mean over the six routes: %.2f allocs per request", mean)
	if !raceEnabled && mean > 4.2 {
		t.Errorf("mean over the six routes: %.2f allocs per request, want <= 4.2", mean)
	}
}

// TestConcurrentPredictsKeepTheirScratch: predicts run concurrently under
// the shared run lock, each with its features and activations in its own
// pooled reply, so every reply is the one a lone predict gives.
func TestConcurrentPredictsKeepTheirScratch(t *testing.T) {
	srv := newDataRouteServer(t)
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			features := make([]float64, models.FeatureDim)
			for i := 0; i < rounds; i++ {
				for j := range features {
					features[j] = float64((g*rounds+i)*len(features)+j)/100 - 8
				}
				probs, class, err := srv.registry.Predict("cbeam", features, new(models.Scratch))
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := json.Marshal(PredictResponse{Probabilities: probs, Class: class})
				body, _ := json.Marshal(PredictRequest{Features: features})
				rec := post(srv, "/api/v1/models/cbeam/predict", string(body))
				if got := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); rec.Code != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("worker %d round %d: %d %s, want %s", g, i, rec.Code, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
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

// decodeBothWays decodes body with the server's predict and upload decoders
// as a stream that ends with end (nil for a clean end of body), and with
// json.Decoder over the same stream, which is what the server ran before
// it read bodies up front. Any difference in error text, status or decoded
// value is reported.
func decodeBothWays(body []byte, end error, scratch []float64) error {
	stream := func() io.Reader {
		if end == nil {
			return bytes.NewReader(body)
		}
		return io.MultiReader(bytes.NewReader(body), iotest.ErrReader(end))
	}
	var wantP PredictRequest
	errP := json.NewDecoder(stream()).Decode(&wantP)
	gotP, err := decodePredict(body, end, scratch)
	if msg := sameDecode(err, errP, gotP, wantP); msg != "" {
		return fmt.Errorf("predict: %s", msg)
	}
	var wantU UploadRequest
	errU := json.NewDecoder(stream()).Decode(&wantU)
	gotU, err := decodeUpload(body, end)
	if msg := sameDecode(err, errU, gotU, wantU); msg != "" {
		return fmt.Errorf("upload: %s", msg)
	}
	return nil
}

// sameDecode compares one decode with its json.Decoder reference: the same
// error text behind the "decode request: " prefix, the same status for it,
// and on success the same value, nil and empty slices told apart.
func sameDecode(err, ref error, got, want any) string {
	switch {
	case (err == nil) != (ref == nil):
		return fmt.Sprintf("error %v, json.Decoder says %v", err, ref)
	case err != nil && err.Error() != "decode request: "+ref.Error():
		return fmt.Sprintf("error %q, json.Decoder says %q", err, ref)
	case err != nil && decodeStatus(err) != decodeStatus(ref):
		return fmt.Sprintf("status %d for %v, json.Decoder's error gives %d", decodeStatus(err), err, decodeStatus(ref))
	case err == nil && !reflect.DeepEqual(got, want):
		return fmt.Sprintf("decoded %#v, json.Decoder gives %#v", got, want)
	}
	return ""
}

// TestBodyBoundMatchesDecoder: reading a body up front keeps what decoding
// the bounded stream gave. A value that ends before maxBodyBytes decodes
// whatever follows it, even past the bound; one still open at the bound is
// a 413.
func TestBodyBoundMatchesDecoder(t *testing.T) {
	srv := newDataRouteServer(t)
	pad := strings.Repeat(" x", maxBodyBytes)
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"predict then junk", "/api/v1/models/cbeam/predict", `{"features":[0,0.5,1,-1,2,0.1,0.2,0.3]}` + pad, http.StatusOK},
		{"upload then junk", "/api/v1/data/upload", `{"source":"user","x":1,"y":2,"payload":"e30="}` + pad, http.StatusOK},
		{"predict open at the bound", "/api/v1/models/cbeam/predict", `{"features":[0` + strings.Repeat(",0", maxBodyBytes), http.StatusRequestEntityTooLarge},
		{"upload open at the bound", "/api/v1/data/upload", `{"source":"` + pad, http.StatusRequestEntityTooLarge},
		{"syntax error before the bound", "/api/v1/data/upload", `{"source":]` + pad, http.StatusBadRequest},
		{"trailing bytes", "/api/v1/models/cbeam/predict", `{"features":[0,0.5,1,-1,2,0.1,0.2,0.3]} {"features":7}`, http.StatusOK},
	} {
		if rec := post(srv, tc.path, tc.body); rec.Code != tc.status {
			t.Errorf("%s: %d %s, want %d", tc.name, rec.Code, rec.Body, tc.status)
		}
		body := []byte(tc.body)
		if len(body) > maxBodyBytes {
			body = body[:maxBodyBytes]
			if err := decodeBothWays(body, &http.MaxBytesError{Limit: maxBodyBytes}, nil); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		} else if err := decodeBothWays(body, nil, nil); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// FuzzPredictBody sends arbitrary bytes as the predict and the upload body.
// Decoded, the bytes give what json.Decoder gives over the same stream,
// ending cleanly or at the size bound: the same error and status, or the
// same value (see decodeBothWays). Served, the reply is never a 500, is
// JSON-typed, and decodes: a 200 into its response type, anything else into
// an error message.
func FuzzPredictBody(f *testing.F) {
	for _, seed := range []string{
		`{"features":[0,0.5,1,-1,2,0.1,0.2,0.3]}`,
		`{"features":[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308]}`,
		`{"features":[-1e308,0,0,0,0,0,0,1e308]}`,
		`{"features":[1]}`,
		`{"features":[-0,0.0e-0,1E+2,-1.5e-7,123456789012345678901234567890123456789]}`,
		`{"features":[1e400]}`,
		`{"features":[01]}`,
		`{"features":[1.,.5,+1,1e,-]}`,
		` {"features" : [ 1 , 2 ] }` + "\n\t",
		`{"features":[]}`,
		`{"Features":[1]}`,
		`{"features":[1],"features":[2,3]}`,
		`{"fe\u0061tures":[1]}`,
		`{"features":[1]} trailing`,
		`{"source":"user","x":1,"y":2,"payload":"e30="}`,
		`{"payload":null,"y":-7.5e-3,"x":0,"source":"obd"}`,
		`{"source":"","x":1e308,"y":-1e308,"payload":"AA=="}`,
		`{"source":"caf\u00e9","x":1,"payload":"e30"}`,
		`{"source":"user","source":"gps"}`,
		`{"source":"user","x":"1"}`,
		`{"features":null}`,
		`{}`,
		`null`,
		`[]`,
		`{`,
		"",
	} {
		f.Add([]byte(seed))
	}
	srv := newDataRouteServer(f)
	scratch := []float64{7, 7, 7}
	tooLarge := &http.MaxBytesError{Limit: maxBodyBytes}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, end := range []error{nil, tooLarge} {
			if err := decodeBothWays(body, end, scratch); err != nil {
				t.Fatalf("%q ending %v: %v", body, end, err)
			}
		}
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
