package libvdap

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/geo"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

func trainedBehaviorModel(t testing.TB) *models.MLP {
	t.Helper()
	rng := sim.NewRNG(1)
	ds, err := models.GenerateDataset(800, models.PopulationDriver(), rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.NewMLP([]int{models.FeatureDim, 16, models.NumStyles}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(ds, models.TrainOptions{Epochs: 10, LearningRate: 0.01}, rng.Fork()); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryRegisterAndList(t *testing.T) {
	r := NewRegistry()
	if err := DefaultCommonLibrary(r); err != nil {
		t.Fatal(err)
	}
	m := trainedBehaviorModel(t)
	if err := r.RegisterMLP("cbeam", KindDrivingBehavior, m, false, false, 0.05); err != nil {
		t.Fatal(err)
	}
	list := r.List()
	if len(list) != 4 {
		t.Fatalf("list = %d entries, want 4", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name > list[i].Name {
			t.Fatal("list not sorted")
		}
	}
	info, err := r.Info("cbeam")
	if err != nil || info.Version != 1 || info.SizeBytes == 0 {
		t.Fatalf("info = %+v, %v", info, err)
	}
	// Re-registering bumps the version.
	if err := r.RegisterMLP("cbeam", KindDrivingBehavior, m, true, false, 0.05); err != nil {
		t.Fatal(err)
	}
	info2, _ := r.Info("cbeam")
	if info2.Version != 2 {
		t.Fatalf("version = %d, want 2", info2.Version)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	m := trainedBehaviorModel(t)
	if err := r.RegisterMLP("", KindNLP, m, false, false, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.RegisterMLP("x", KindNLP, nil, false, false, 1); err == nil {
		t.Fatal("nil model accepted")
	}
	if err := r.RegisterMLP("x", KindNLP, m, false, false, 0); err == nil {
		t.Fatal("zero cost accepted")
	}
	if err := r.RegisterCostModel(ModelInfo{Name: "x"}); err == nil {
		t.Fatal("cost model without cost accepted")
	}
	if _, err := r.Info("ghost"); err == nil {
		t.Fatal("unknown model info")
	}
}

func TestRegistryPredict(t *testing.T) {
	r := NewRegistry()
	m := trainedBehaviorModel(t)
	if err := r.RegisterMLP("cbeam", KindDrivingBehavior, m, false, false, 0.05); err != nil {
		t.Fatal(err)
	}
	features := make([]float64, models.FeatureDim)
	probs, class, err := r.Predict("cbeam", features, new(models.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != models.NumStyles || class < 0 || class >= models.NumStyles {
		t.Fatalf("predict = %v, %d", probs, class)
	}
	if _, _, err := r.Predict("ghost", features, new(models.Scratch)); err == nil {
		t.Fatal("unknown model predicted")
	}
	if err := DefaultCommonLibrary(r); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Predict("nlp-voice-command", features, new(models.Scratch)); err == nil {
		t.Fatal("cost-only model predicted")
	}
}

// newTestServer assembles a full server with every resource group backed.
func newTestServer(t *testing.T) (*httptest.Server, *Client, *edgeos.DataSharing) {
	t.Helper()
	reg := NewRegistry()
	if err := DefaultCommonLibrary(reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterMLP("cbeam", KindDrivingBehavior, trainedBehaviorModel(t), false, false, 0.05); err != nil {
		t.Fatal(err)
	}
	mhep, err := vcu.DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	road, _ := geo.NewRoad(10000)
	store, err := ddi.New(ddi.Options{Dir: t.TempDir(), Mobility: geo.Mobility{Road: road, SpeedMS: 10}}, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	sharing, err := edgeos.NewDataSharing([]byte("sharing-master-key-0123456789ab!"), 16)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration = 42 * time.Second
	srv, err := NewServer(reg, mhep, store, sharing, nil, obs.Scope{}, func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ts, client, sharing
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{}, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("", nil); err == nil {
		t.Fatal("empty base accepted")
	}
}

// newStubClient points a Client at a bare handler standing in for the API.
func newStubClient(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientPreserves4xxErrorFormat(t *testing.T) {
	c := newStubClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(apiError{Error: "no such model"})
	})
	_, err := c.Model("ghost")
	if err == nil {
		t.Fatal("want 404 error")
	}
	want := `GET /api/v1/models/ghost: no such model (HTTP 404)`
	if err.Error() != want {
		t.Fatalf("error format changed:\n got: %s\nwant: %s", err, want)
	}
}

// TestClientDoesNotRetryNonIdempotent: a shed (503) is the caller's to
// handle — the client sends each call once, a POST included.
func TestClientDoesNotRetryNonIdempotent(t *testing.T) {
	var hits atomic.Int64
	c := newStubClient(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(apiError{Error: "overloaded"})
	})
	err := c.Publish("svc", "topic", []byte("x"))
	if want := "POST /api/v1/sharing/publish: overloaded (HTTP 503)"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("POST was attempted %d times, want 1", n)
	}
}

func TestStreamFramesStopsOnFinalFrame(t *testing.T) {
	c := newStubClient(t, func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.Encode(obs.Frame{WatermarkNs: 1})
		enc.Encode(obs.Frame{WatermarkNs: 2, Final: true})
	})
	frames, err := c.StreamFrames(-1, 10)
	if err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if len(frames) != 2 || !frames[1].Final {
		t.Fatalf("got %d frames (final=%v), want 2 ending in a final frame", len(frames), frames[len(frames)-1].Final)
	}
}

// TestStreamFramesBoundedWithoutProgress: a stream that closes before the
// requested frame count, with no final frame, is an error that still hands
// back what did arrive — never a silent short read.
func TestStreamFramesBoundedWithoutProgress(t *testing.T) {
	for _, sent := range []int{0, 1} {
		c := newStubClient(t, func(w http.ResponseWriter, r *http.Request) {
			for i := 0; i < sent; i++ {
				json.NewEncoder(w).Encode(obs.Frame{WatermarkNs: int64(i + 1)})
			}
		})
		frames, err := c.StreamFrames(-1, 3)
		want := fmt.Sprintf("GET /api/v1/stream: stream closed after %d/3 frames", sent)
		if err == nil || err.Error() != want {
			t.Fatalf("sent %d: err = %v, want %s", sent, err, want)
		}
		if len(frames) != sent {
			t.Fatalf("sent %d: got %d frames", sent, len(frames))
		}
	}
	c := newStubClient(t, func(http.ResponseWriter, *http.Request) {})
	if _, err := c.StreamFrames(-1, 0); err == nil {
		t.Fatal("StreamFrames(-1, 0) accepted")
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, client, _ := newTestServer(t)
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st["platform"] != "openvdap" {
		t.Fatalf("status = %v", st)
	}
	if st["virtualTime"].(float64) != 42 {
		t.Fatalf("virtualTime = %v", st["virtualTime"])
	}
}

// TestOnlyCanonicalPrefixAnswers: /api/v1 is the one spelling of the API.
// The short /v1 alias used to be a rewrite that server and client both had
// to know; it is a 404 like any other unknown path.
func TestOnlyCanonicalPrefixAnswers(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for path, want := range map[string]int{
		"/api/v1/status": http.StatusOK,
		"/v1/status":     http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestModelEndpoints(t *testing.T) {
	_, client, _ := newTestServer(t)
	list, err := client.Models()
	if err != nil || len(list) != 4 {
		t.Fatalf("models = %v, %v", list, err)
	}
	info, err := client.Model("cbeam")
	if err != nil || info.Name != "cbeam" {
		t.Fatalf("model = %+v, %v", info, err)
	}
	if _, err := client.Model("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("ghost model err = %v", err)
	}
	resp, err := client.Predict("cbeam", make([]float64, models.FeatureDim))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Probabilities) != models.NumStyles {
		t.Fatalf("predict = %+v", resp)
	}
	if _, err := client.Predict("cbeam", []float64{1}); err == nil {
		t.Fatal("bad feature length accepted")
	}
}

func TestResourcesEndpoint(t *testing.T) {
	_, client, _ := newTestServer(t)
	profs, err := client.Resources()
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 4 {
		t.Fatalf("resources = %d devices", len(profs))
	}
	for _, p := range profs {
		if p.Name == "" {
			t.Fatalf("bad profile %+v", p)
		}
	}
}

func TestDataEndpoints(t *testing.T) {
	_, client, _ := newTestServer(t)
	id, err := client.Upload("user", 12, 34, []byte(`{"hello":"world"}`))
	if err != nil || id == 0 {
		t.Fatalf("upload = %d, %v", id, err)
	}
	recs, latencyMS, err := client.QueryData("user", 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != id {
		t.Fatalf("query = %v", recs)
	}
	if latencyMS <= 0 {
		t.Fatal("no simulated latency reported")
	}
	// Bad query parameters rejected.
	if _, _, err := client.QueryData("user", -5, 10, 0); err == nil {
		t.Fatal("negative time accepted")
	}

	// Windowed aggregate over the same record.
	win, err := client.QueryWindow("user", "x", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if win.Column != "x" || win.Aggregate.Count != 1 || win.Aggregate.Mean != 12 {
		t.Fatalf("window = %+v", win)
	}
	// Empty window aggregates to zero, not an error.
	win, err = client.QueryWindow("", "at", 5000, 6000)
	if err != nil || win.Aggregate.Count != 0 {
		t.Fatalf("empty window = %+v, %v", win, err)
	}
	// Bad column rejected.
	if _, err := client.QueryWindow("user", "bogus", 0, 100); err == nil {
		t.Fatal("bogus column accepted")
	}
}

// TestOversizedBodyIs413: a POST body past the 1 MiB bound is refused with
// 413 and the usual JSON error, and an oversized upload stores nothing.
func TestOversizedBodyIs413(t *testing.T) {
	ts, client, _ := newTestServer(t)
	big := `{"source":"user","x":1,"y":2,"payload":"` + strings.Repeat("A", 2<<20) + `"}`
	for _, path := range []string{"/api/v1/data/upload", "/api/v1/models/cbeam/predict", "/api/v1/sharing/publish"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var body apiError
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a 2 MiB body = %d, want 413", path, resp.StatusCode)
		}
		if derr != nil || body.Error == "" {
			t.Fatalf("POST %s: 413 without a JSON error (%v)", path, derr)
		}
	}
	recs, _, err := client.QueryData("user", 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("oversized upload stored %d records", len(recs))
	}
}

func TestSharingEndpoints(t *testing.T) {
	_, client, sharing := newTestServer(t)
	tok, err := sharing.Enroll("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := sharing.Grant("alerts", "app", "pubsub"); err != nil {
		t.Fatal(err)
	}
	// Without a token, publish must fail.
	if err := client.Publish("app", "alerts", []byte("boom")); err == nil {
		t.Fatal("unauthenticated publish succeeded")
	}
	client.SetToken(tok)
	if err := client.Publish("app", "alerts", []byte("pedestrian ahead")); err != nil {
		t.Fatal(err)
	}
	topics, err := client.Topics()
	if err != nil || len(topics) != 1 || topics[0] != "alerts" {
		t.Fatalf("topics = %v, %v", topics, err)
	}
	msgs, err := client.FetchMessages("app", "alerts", 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("fetch = %v, %v", msgs, err)
	}
	if string(msgs[0].Payload) != "pedestrian ahead" {
		t.Fatalf("payload = %q", msgs[0].Payload)
	}
}

func TestDetachedGroupsReturn503(t *testing.T) {
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, _ := NewClient(ts.URL, nil)
	if _, err := client.Models(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("models err = %v", err)
	}
	if _, err := client.Resources(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("resources err = %v", err)
	}
	if _, err := client.Upload("x", 0, 0, []byte("y")); err == nil {
		t.Fatal("upload succeeded without DDI")
	}
	if _, err := client.Topics(); err == nil {
		t.Fatal("topics succeeded without sharing")
	}
	if _, err := client.Services(); err == nil {
		t.Fatal("services endpoint without EdgeOSv succeeded")
	}
	// Status still works.
	if _, err := client.Status(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceEndpoints(t *testing.T) {
	reg := NewRegistry()
	mhep, err := vcu.DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	dsf, err := vcu.NewDSF(mhep, vcu.GreedyEFT{})
	if err != nil {
		t.Fatal(err)
	}
	road, _ := geo.NewRoad(10000)
	cl, err := xedge.NewCloud()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := offload.NewEngine(dsf, geo.Mobility{Road: road}, []*xedge.Site{cl})
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := edgeos.NewElasticManager(eng, edgeos.MinLatency)
	if err != nil {
		t.Fatal(err)
	}
	if err := elastic.Register(&edgeos.Service{
		Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
		DAG: tasks.ALPR(), Image: []byte("a3"),
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(reg, mhep, nil, nil, elastic, obs.Scope{}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, _ := NewClient(ts.URL, nil)
	res, err := client.Invoke("kidnapper-search")
	if err != nil {
		t.Fatal(err)
	}
	if res.HungUp || res.LatencyMS <= 0 {
		t.Fatalf("invoke = %+v", res)
	}
	list, err := client.Services()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "kidnapper-search" {
		t.Fatalf("services = %+v", list)
	}
	if list[0].Invocations != 1 || list[0].AvgMS <= 0 {
		t.Fatalf("stats = %+v", list[0])
	}
	if _, err := client.Invoke("ghost"); err == nil {
		t.Fatal("unknown service invoked")
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterHandle("vcu.plans").Add(2)
	reg.HistogramHandle("offload.total_ms").Observe(120)
	tr := trace.New()
	sp := tr.StartSpanAt("offload", "offload.decide", time.Second)
	tr.SpanAt("network", "network.uplink", time.Second, 2*time.Second)
	sp.FinishAt(time.Second)

	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{Metrics: reg, Tracer: tr}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	path := "/api/v1/metrics"
	code, body, ctype := get(path)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("GET %s content-type = %q", path, ctype)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("GET %s not a Snapshot: %v", path, err)
	}
	if snap.Counters["vcu.plans"] != 2 || snap.Histograms["offload.total_ms"].Count != 1 {
		t.Fatalf("GET %s snapshot = %s", path, body)
	}
	if code, body, _ := get("/api/v1/metrics?format=text"); code != http.StatusOK || !strings.Contains(body, "vcu.plans") {
		t.Fatalf("text metrics = %d:\n%s", code, body)
	}

	path = "/api/v1/trace"
	code, body, ctype = get(path)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("GET %s content-type = %q", path, ctype)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("GET %s not JSON: %v", path, err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatalf("GET %s missing traceEvents: %s", path, body)
	}
	if code, body, _ := get("/api/v1/trace?format=tree"); code != http.StatusOK || !strings.Contains(body, "offload.decide") {
		t.Fatalf("tree trace = %d:\n%s", code, body)
	}
}

func TestMetricsAndTraceDetachedReturn503(t *testing.T) {
	srv, err := NewServer(nil, nil, nil, nil, nil, obs.Scope{}, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, path := range []string{"/api/v1/metrics", "/api/v1/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s = %d, want 503", path, resp.StatusCode)
		}
	}
}
