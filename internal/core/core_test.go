package core

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/edgeos"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/tasks"
	"repro/internal/trace"
)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(DefaultConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultConfig(t.TempDir())
	cfg.Secret = []byte("short")
	if _, err := New(cfg); err == nil {
		t.Fatal("short secret accepted")
	}
	if _, err := New(DefaultConfig("")); err == nil {
		t.Fatal("empty data dir accepted")
	}
}

func TestPlatformWiring(t *testing.T) {
	p := newPlatform(t)
	if p.Engine() == nil || p.Road() == nil || p.MHEP() == nil || p.DSF() == nil ||
		p.Offload() == nil || p.Elastic() == nil || p.Security() == nil ||
		p.Runtime() == nil || p.Sharing() == nil || p.Privacy() == nil ||
		p.DDI() == nil || p.Cloud() == nil || p.Registry() == nil || p.API() == nil {
		t.Fatal("platform component missing")
	}
	// RSUs + cloud are offload sites.
	if got := len(p.Offload().Sites()); got != rsus+1 {
		t.Fatalf("sites = %d", got)
	}
	if len(p.Registry().List()) == 0 {
		t.Fatal("common model library not loaded")
	}
}

func TestInstallAndInvokeService(t *testing.T) {
	p := newPlatform(t)
	svc := &edgeos.Service{
		Name:     "kidnapper-search",
		Priority: edgeos.PriorityInteractive,
		Deadline: 5 * time.Second,
		DAG:      tasks.ALPR(),
		Image:    []byte("a3-mobile-v1"),
	}
	if err := p.InstallService(svc); err != nil {
		t.Fatal(err)
	}
	res, err := p.InvokeService("kidnapper-search")
	if err != nil {
		t.Fatal(err)
	}
	if res.HungUp {
		t.Fatal("service hung up in healthy conditions")
	}
	if res.Latency <= 0 {
		t.Fatal("no latency recorded")
	}
	// Virtual time advanced past completion.
	if p.Engine().Now() < res.Completed {
		t.Fatalf("clock %v behind completion %v", p.Engine().Now(), res.Completed)
	}
	// Container exists and is attested.
	if err := p.Security().Attest("kidnapper-search"); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionLoop(t *testing.T) {
	p := newPlatform(t)
	if err := p.StartCollection(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.StartCollection(time.Second); err == nil {
		t.Fatal("double start accepted")
	}
	if err := p.Engine().RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := p.DDI().Store().Count(); got < 4*30 {
		t.Fatalf("collected %d records in 30s, want >= 120", got)
	}
	p.StopCollection()
	count := p.DDI().Store().Count()
	if err := p.Engine().RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.DDI().Store().Count() != count {
		t.Fatal("collection continued after stop")
	}
}

func TestMigrateOldData(t *testing.T) {
	p := newPlatform(t)
	if err := p.StartCollection(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Engine().RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	p.StopCollection()
	n, dur, err := p.MigrateOldData(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || dur <= 0 {
		t.Fatalf("migrated %d in %v", n, dur)
	}
	if p.Cloud().Data().Count() != n {
		t.Fatal("cloud did not receive migrated records")
	}
	// Identity was pseudonymized.
	for _, r := range p.Cloud().Data().Query("", 0, time.Hour) {
		if r.Vehicle == "" || len(r.Vehicle) != 32 {
			t.Fatalf("bad pseudonym %q", r.Vehicle)
		}
	}
}

func TestSetSpeedPropagates(t *testing.T) {
	p := newPlatform(t)
	heavy := &edgeos.Service{
		Name:     "cloud-only-check",
		Priority: edgeos.PriorityBackground,
		DAG:      &tasks.DAG{Name: "d", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}},
		Image:    []byte("x"),
	}
	if err := p.InstallService(heavy); err != nil {
		t.Fatal(err)
	}
	if p.Mobility().SpeedMS != geo.MPH(35) {
		t.Fatalf("initial speed = %v", p.Mobility().SpeedMS)
	}
	p.SetSpeedMPH(70)
	if p.Mobility().SpeedMS != geo.MPH(70) {
		t.Fatal("speed not updated")
	}
}

func TestAPIEndToEnd(t *testing.T) {
	p := newPlatform(t)
	ts := httptest.NewServer(p.API())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	groups, ok := status["groups"].(map[string]any)
	if !ok {
		t.Fatalf("status = %v", status)
	}
	for _, g := range []string{"models", "resources", "data", "sharing"} {
		if groups[g] != true {
			t.Fatalf("group %s not attached", g)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func(dir string) time.Duration {
		cfg := DefaultConfig(dir)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		svc := &edgeos.Service{
			Name: "svc", Priority: edgeos.PriorityInteractive,
			DAG: tasks.ALPR(), Image: []byte("v1"),
		}
		if err := p.InstallService(svc); err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for i := 0; i < 5; i++ {
			res, err := p.InvokeService("svc")
			if err != nil {
				t.Fatal(err)
			}
			total += res.Latency
		}
		return total
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if a != b {
		t.Fatalf("runs diverged: %v vs %v", a, b)
	}
}

func TestMetricsAndReport(t *testing.T) {
	p := newPlatform(t)
	svc := &edgeos.Service{
		Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
		DAG: tasks.ALPR(), Image: []byte("a3"),
	}
	if err := p.InstallService(svc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.InvokeService("kidnapper-search"); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.StartCollection(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Engine().RunUntil(p.Engine().Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Counter("service.kidnapper-search.invocations"); got != 3 {
		t.Fatalf("invocation counter = %v", got)
	}
	h := p.Metrics().Histogram("service.kidnapper-search.latency_ms")
	if h == nil || h.Count() != 3 {
		t.Fatal("latency histogram missing samples")
	}
	if got := p.Metrics().Counter("ddi.records_collected"); got < 40 {
		t.Fatalf("collection counter = %v", got)
	}
	report := p.Report()
	for _, want := range []string{
		"OpenVDAP platform report",
		"kidnapper-search",
		"VCU devices",
		"DDI",
		"service.kidnapper-search.latency_ms",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func BenchmarkPlatformInvokeALPR(b *testing.B) {
	p, err := New(DefaultConfig(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	svc := &edgeos.Service{
		Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
		DAG: tasks.ALPR(), Image: []byte("a3"),
	}
	if err := p.InstallService(svc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.InvokeService("kidnapper-search"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlatformFirewall(t *testing.T) {
	p := newPlatform(t)
	v, rule := p.AdmitFlow(edgeos.Flow{Iface: network.LTE, Protocol: "ssh", Source: "internet:evil"})
	if v != edgeos.Deny || rule != "default-deny" {
		t.Fatalf("remote ssh = %v via %s", v, rule)
	}
	v, _ = p.AdmitFlow(edgeos.Flow{Iface: network.DSRC, Protocol: "bsm", Source: "pseudonym:x"})
	if v != edgeos.Allow {
		t.Fatalf("DSRC beacon = %v", v)
	}
	if got := p.Metrics().Counter("firewall.deny"); got != 1 {
		t.Fatalf("deny counter = %v", got)
	}
	if !strings.Contains(p.Report(), "firewall") {
		t.Fatal("report missing firewall section")
	}
}

// TestEndToEndTraceSpanTree is the observability E2E: the quickstart
// offload scenario must produce the expected span tree (service invocation
// wrapping pipeline choice, per-destination estimates, and execution), and
// both exporters must be byte-identical across same-seed runs.
func TestEndToEndTraceSpanTree(t *testing.T) {
	run := func() (string, string) {
		p := newPlatform(t)
		svc := &edgeos.Service{
			Name:     "kidnapper-search",
			Priority: edgeos.PriorityInteractive,
			Deadline: 5 * time.Second,
			DAG:      tasks.ALPR(),
			Image:    []byte("a3-mobile-v1"),
		}
		if err := p.InstallService(svc); err != nil {
			t.Fatal(err)
		}
		if err := p.StartCollection(time.Second); err != nil {
			t.Fatal(err)
		}
		// By t=60s the vehicle (35 MPH) is ~940 m in — inside the first
		// RSU's 400 m coverage — so XEdge estimates are evaluated too.
		if err := p.Engine().RunUntil(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := p.InvokeService("kidnapper-search"); err != nil {
			t.Fatal(err)
		}
		tree := p.Tracer().RenderTree()
		chrome, err := p.Tracer().ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}

		// Structure: an edgeos.invoke root holding the pipeline choice,
		// whose estimates nest under it, and the execution.
		var invoke *trace.Span
		for _, r := range p.Tracer().Roots() {
			if r.Name == "edgeos.invoke" {
				invoke = r
			}
		}
		if invoke == nil {
			t.Fatalf("no edgeos.invoke root in:\n%s", tree)
		}
		childNames := map[string]int{}
		for _, c := range invoke.Children {
			childNames[c.Name]++
		}
		if childNames["edgeos.choose"] != 1 {
			t.Fatalf("edgeos.invoke children = %v, want one edgeos.choose", childNames)
		}
		if childNames["offload.execute"] != 1 {
			t.Fatalf("edgeos.invoke children = %v, want one offload.execute", childNames)
		}
		var choose *trace.Span
		for _, c := range invoke.Children {
			if c.Name == "edgeos.choose" {
				choose = c
			}
		}
		estimates := 0
		for _, c := range choose.Children {
			if c.Name == "offload.estimate" {
				estimates++
			}
		}
		// ALPR has three pipelines evaluated over onboard + 11 sites.
		if estimates < 3 {
			t.Fatalf("edgeos.choose holds %d offload.estimate spans, want >= 3:\n%s", estimates, tree)
		}
		for _, want := range []string{"vcu.plan", "network.uplink", "network.downlink", "xedge.exec", "cloud.exec", "ddi.collect"} {
			if !strings.Contains(tree, want) {
				t.Fatalf("span %q missing from tree:\n%s", want, tree)
			}
		}
		comps := p.Tracer().Components()
		for _, want := range []string{"cloud", "ddi", "edgeos", "network", "offload", "vcu", "xedge"} {
			found := false
			for _, c := range comps {
				if c == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("component %q missing from %v", want, comps)
			}
		}
		return tree, string(chrome)
	}
	tree1, chrome1 := run()
	tree2, chrome2 := run()
	if tree1 != tree2 {
		t.Fatal("RenderTree differs across same-seed runs")
	}
	if chrome1 != chrome2 {
		t.Fatal("ChromeTrace differs across same-seed runs")
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(chrome1), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("chrome trace missing traceEvents")
	}
}

// TestObservabilityWiring drives the platform with sampling on and reads
// the series, events, and stream endpoints end to end.
func TestObservabilityWiring(t *testing.T) {
	p := newPlatform(t)
	if p.Series() == nil || p.FlightRecorder() == nil {
		t.Fatal("observability stores not wired")
	}
	if err := p.InstallService(&edgeos.Service{
		Name: "alpr", Priority: edgeos.PriorityInteractive,
		Deadline: 2 * time.Second, DAG: tasks.ALPR(), Image: []byte("alpr-v1"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.StartSampling(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := p.StartSampling(time.Second); err == nil {
		t.Fatal("double StartSampling accepted")
	}
	for i := 0; i < 5; i++ {
		if _, err := p.InvokeService("alpr"); err != nil {
			t.Fatal(err)
		}
		if err := p.Engine().RunUntil(p.Engine().Now() + 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if p.Series().Len() == 0 {
		t.Fatal("no series sampled")
	}

	ts := httptest.NewServer(p.API())
	defer ts.Close()
	var payload struct {
		Series []struct {
			Name   string `json:"name"`
			Points int    `json:"points"`
		} `json:"series"`
	}
	resp, err := ts.Client().Get(ts.URL + "/api/v1/metrics/series")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, s := range payload.Series {
		if strings.HasPrefix(s.Name, "service.alpr.") && s.Points > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no service.alpr series in %+v", payload.Series)
	}

	// The stream endpoint's first frame carries the backlog.
	resp, err = ts.Client().Get(ts.URL + "/api/v1/stream?frames=1")
	if err != nil {
		t.Fatal(err)
	}
	var frame struct {
		WatermarkNs int64 `json:"watermarkNs"`
		Series      *struct {
			Series []any `json:"series"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&frame); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if frame.WatermarkNs <= 0 || frame.Series == nil || len(frame.Series.Series) == 0 {
		t.Fatalf("stream frame = %+v", frame)
	}

	p.StopSampling()
	if err := p.StartSampling(time.Second); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
}
