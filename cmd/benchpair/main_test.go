package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPairFileRoundTrip: the summary of three pairs has each side's
// quartiles and the change's wins where a direction is known, leaves out a
// metric some run did not print, and what -out writes reads back equal.
func TestPairFileRoundTrip(t *testing.T) {
	names := []string{"peak_rss_mb", "fleet.round.count", "ops_per_s", "only_some_runs"}
	values := map[string][2][]float64{
		"peak_rss_mb":       {{240, 250, 256}, {150, 260, 170}},
		"fleet.round.count": {{472, 470, 471}, {472, 470, 471}},
		"ops_per_s":         {{100, 200, 300}, {110, 190, 310}},
		"only_some_runs":    {{1, 2, 3}, {1, 2}},
	}
	better := map[string]string{"peak_rss_mb": "lower", "ops_per_s": "higher"}
	pf := pairFile{Workload: "fleet_chaos", Pairs: 3, Seed: 501, RunSeconds: 10,
		Sides: [2]sideEnv{
			{Name: "parent", Commit: "21d978b", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
			{Name: "change", Commit: "21d978b", WorkingTree: true, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		},
		Runs: []pairRun{
			{Pair: 1, Seed: 501, Side: "parent", Ran: "first", Metrics: map[string]float64{"peak_rss_mb": 240}},
			{Pair: 1, Seed: 501, Side: "change", Ran: "second", Metrics: map[string]float64{"peak_rss_mb": 150}},
		},
		Metrics: summarise(names, values, better, 3),
	}
	wins := 2 // of three pairs, on both directed metrics
	want := []metricSummary{
		{Name: "peak_rss_mb", Better: "lower", Parent: quartiles{245, 250, 253}, Change: quartiles{160, 170, 215}, Wins: &wins},
		{Name: "fleet.round.count", Parent: quartiles{470.5, 471, 471.5}, Change: quartiles{470.5, 471, 471.5}},
		{Name: "ops_per_s", Better: "higher", Parent: quartiles{150, 200, 250}, Change: quartiles{150, 190, 250}, Wins: &wins},
	}
	if !reflect.DeepEqual(pf.Metrics, want) {
		got, _ := json.Marshal(pf.Metrics)
		exp, _ := json.Marshal(want)
		t.Fatalf("summary\n%s\nwant\n%s", got, exp)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := writePairFile(path, &pf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back pairFile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, pf) {
		t.Fatalf("read back\n%+v\nwrote\n%+v", back, pf)
	}
}
