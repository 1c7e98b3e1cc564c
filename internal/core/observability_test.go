package core

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/edgeos"
	"repro/internal/tasks"
	"repro/internal/telemetry"
)

func TestMetricsEndpointSubsystems(t *testing.T) {
	p := newPlatform(t)
	svc := &edgeos.Service{Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
		Deadline: 5 * time.Second, DAG: tasks.ALPR(), Image: []byte("a3")}
	if err := p.InstallService(svc); err != nil {
		t.Fatal(err)
	}
	if err := p.StartCollection(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Engine().RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.InvokeService("kidnapper-search"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.API())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	subsys := map[string]bool{}
	for name := range snap.Counters {
		subsys[strings.SplitN(name, ".", 2)[0]] = true
	}
	for name := range snap.Histograms {
		subsys[strings.SplitN(name, ".", 2)[0]] = true
	}
	t.Logf("subsystems: %v (counters=%d hists=%d)", subsys, len(snap.Counters), len(snap.Histograms))
	if len(subsys) < 4 {
		t.Fatalf("only %d subsystems", len(subsys))
	}
}
