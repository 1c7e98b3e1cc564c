package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower by 5%", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"slower by 20%", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"faster by 20%", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"throughput up 20%", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"noisy, medians agree", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 118, 92, 111}, "unresolved"},
		{"noisy, but every run better", lower, []float64{180, 200, 220, 190, 210}, []float64{80, 100, 120, 90, 110}, "ok"},
	} {
		if got, worse, spread := verdict(c.d, c.d.Bound, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q (worse %.3f, spread %.3f), want %q", c.name, got, worse, spread, c.want)
		}
	}
}

func TestCheckHoldsEachPairToItsOwnBound(t *testing.T) {
	// A steady set: every pair reads 100 +-1%, except that one may be scaled.
	full := func(workload, metric string, scale float64) *runSet {
		set := &runSet{values: make(map[string]map[string][]float64), digests: make(map[string]map[int64]map[string]string)}
		for _, wl := range workloads {
			set.values[wl.Name] = make(map[string][]float64)
			for _, d := range endToEnd {
				v := 100.0
				if wl.Name == workload && d.Name == metric {
					v *= scale
				}
				set.values[wl.Name][d.Name] = []float64{v, v * 1.01, v * 0.99}
			}
			set.digests[wl.Name] = map[int64]map[string]string{7: {"rounds": "abc"}}
		}
		return set
	}
	same := full("", "", 1)
	pb := deriveBounds(same, same) // 2% spread: every pair of a listed workload is gated at 0.04
	if p := pb["ddi_query"]["op_p50_ms"]; !p.Gated || p.Bound != 0.04 {
		t.Fatalf("a 2%% spread derives %+v, want a gated bound of 0.04", p)
	}
	if p := pb["ddi_ingest"]["op_p50_ms"]; p.Gated {
		t.Errorf("ddi_ingest is not in BENCHMARK.json, yet its pair is gated: %+v", p)
	}
	noisy := full("", "", 1)
	noisy.values["fleet_clean"]["ops_per_s"] = []float64{80, 90, 100, 110, 120}
	if p := deriveBounds(same, noisy)["fleet_clean"]["ops_per_s"]; p.Gated || p.Bound <= fineBoundMax {
		t.Errorf("a 30%% spread derives %+v, want a demoted pair", p)
	}

	var buf bytes.Buffer
	if code := printCheck(same, same, pb, &buf); code != 0 {
		t.Errorf("identical sets exit %d:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := printCheck(same, full("ddi_query", "op_p50_ms", 1.08), pb, &buf); code != 1 || !strings.Contains(buf.String(), "regressed") {
		t.Errorf("an 8%% slower ddi_query p50 against a 0.04 bound exits %d:\n%s", code, buf.String())
	}
	// A demoted pair is held to the manifest's bound only.
	demoted := deriveBounds(same, noisy)
	buf.Reset()
	if code := printCheck(same, full("fleet_clean", "ops_per_s", 0.9), demoted, &buf); code != 0 || !strings.Contains(buf.String(), "diagnostic") {
		t.Errorf("a 10%% slower demoted pair exits %d:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := printCheck(same, full("fleet_clean", "ops_per_s", 0.5), demoted, &buf); code != 1 {
		t.Errorf("a demoted pair at half its rate, beyond the manifest's bound, exits %d:\n%s", code, buf.String())
	}
	// A workload the manifest does not list never fails the check.
	buf.Reset()
	if code := printCheck(same, full("ddi_ingest", "ops_per_s", 0.5), pb, &buf); code != 0 {
		t.Errorf("ddi_ingest at half its rate exits %d:\n%s", code, buf.String())
	}
	partial := full("", "", 1)
	delete(partial.values, "serve_data")
	buf.Reset()
	if code := printCheck(same, partial, pb, &buf); code != 1 || !strings.Contains(buf.String(), "missing") {
		t.Errorf("a set without serve_data exits %d:\n%s", code, buf.String())
	}
	changed := full("", "", 1)
	changed.digests["fleet_chaos"][7] = map[string]string{"rounds": "abd"}
	buf.Reset()
	if code := printCheck(same, changed, pb, &buf); code != 1 || !strings.Contains(buf.String(), "digest") {
		t.Errorf("a differing digest at a shared seed exits %d:\n%s", code, buf.String())
	}
}
