package libvdap

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// newDataRouteServer assembles a server whose data routes all answer: the
// cBEAM model and the common library, the default VCU, a DDI store, and an
// EdgeOSv manager with one ALPR service, all at a fixed virtual clock of
// 42 s.
func newDataRouteServer(tb testing.TB) *Server {
	tb.Helper()
	reg := NewRegistry()
	if err := DefaultCommonLibrary(reg); err != nil {
		tb.Fatal(err)
	}
	if err := reg.RegisterMLP("cbeam", KindDrivingBehavior, trainedBehaviorModel(tb), false, false, 0.05); err != nil {
		tb.Fatal(err)
	}
	mhep, err := vcu.DefaultVCU()
	if err != nil {
		tb.Fatal(err)
	}
	dsf, err := vcu.NewDSF(mhep, vcu.GreedyEFT{})
	if err != nil {
		tb.Fatal(err)
	}
	road, _ := geo.NewRoad(10000)
	cl, err := xedge.NewCloud()
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := offload.NewEngine(dsf, geo.Mobility{Road: road}, []*xedge.Site{cl})
	if err != nil {
		tb.Fatal(err)
	}
	elastic, err := edgeos.NewElasticManager(eng, edgeos.MinLatency)
	if err != nil {
		tb.Fatal(err)
	}
	if err := elastic.Register(&edgeos.Service{
		Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
		DAG: tasks.ALPR(), Image: []byte("a3"),
	}); err != nil {
		tb.Fatal(err)
	}
	store, err := ddi.New(ddi.Options{Dir: tb.TempDir(), Mobility: geo.Mobility{Road: road, SpeedMS: 10}}, sim.NewRNG(2))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	srv, err := NewServer(reg, mhep, store, nil, elastic, obs.Scope{}, func() time.Duration { return 42 * time.Second })
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// dataRouteRequests is the golden's request script, run in order against
// one server: uploads (one refused), then every read of them.
var dataRouteRequests = []struct{ method, path, body string }{
	{"POST", "/api/v1/data/upload", `{"source":"user","x":12,"y":34,"payload":"eyJoZWxsbyI6IndvcmxkIn0="}`},
	{"POST", "/api/v1/data/upload", `{"source":"user","x":-7.5,"y":0.25,"payload":"AAEC/w=="}`},
	{"POST", "/api/v1/data/upload", `{"source":"obd","x":1e3,"y":2,"payload":"e30="}`},
	{"POST", "/api/v1/data/upload", `{"source":"obd","x":1,"y":2,"payload":null}`},
	{"GET", "/api/v1/data/query?source=user&from=0&to=100", ""},
	{"GET", "/api/v1/data/query?from=0&to=100&limit=2", ""},
	{"GET", "/api/v1/data/query?source=user&from=5000&to=6000", ""},
	{"GET", "/api/v1/data/window?source=user&column=x&from=0&to=100", ""},
	{"GET", "/api/v1/data/window?from=5000&to=6000", ""},
	{"POST", "/api/v1/models/cbeam/predict", `{"features":[0,0.5,1,-1,2,0.1,0.2,0.3]}`},
	{"POST", "/api/v1/services/kidnapper-search/invoke", ""},
	{"GET", "/api/v1/resources", ""},
	{"GET", "/api/v1/data/query?source=user&from=-5&to=100", ""},
}

// TestDataRoutesGolden pins the identity replies of the uncached data
// routes — status, Content-Type, Content-Length and body, byte for byte —
// to testdata/libvdap_data_routes.golden. A change to how a reply is
// encoded or to what a route answers shows up as a diff; after checking
// the move is intended,
//
//	go test ./internal/libvdap -run TestDataRoutesGolden -update
//
// rewrites the file.
func TestDataRoutesGolden(t *testing.T) {
	srv := newDataRouteServer(t)
	var got bytes.Buffer
	for _, tc := range dataRouteRequests {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		fmt.Fprintf(&got, "== %s %s\nstatus: %d\ncontent-type: %s\ncontent-length: %s\n%s",
			tc.method, tc.path, rec.Code, rec.Header().Get("Content-Type"),
			rec.Header().Get("Content-Length"), rec.Body.Bytes())
	}
	golden := filepath.Join("testdata", "libvdap_data_routes.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from the routes' replies (-update rewrites it):\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
