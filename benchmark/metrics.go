package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is used by end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

// endToEnd is what a user of the platform sees. Every workload reports every
// one of them; "op" and the latency unit are defined per workload (README).
// Bound is the manifest's: one per metric for every gated workload at once,
// which the pipeline enforces and refuses when a run-to-run spread exceeds
// it, so it stays three times clear of the metric's widest spread over the
// gated workloads in the committed baseline (baseline/SPREADS.md: 5% for the
// two allocation figures, 7-11% for the rest, 20% for setup_s), up to the 0.25
// the manifest allows. -check is finer: it holds every (workload, metric) pair
// to a bound of its own (bounds.json, check.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_kop", "ms", "lower", 0.25},
	{"allocs_per_op", "objects", "lower", 0.15},
	{"alloc_kb_per_op", "KB", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the diagnostic set a traced run reports, grouped by module.
// A workload reports 0 for a layer it does not exercise.
var perLayer = buildPerLayer()

// snapshotRoutes and dataRoutes are the libvdap routes of the two serve
// workloads, by the short name their metrics carry.
var (
	snapshotRoutes = []string{"status", "metrics", "series", "events"}
	dataRoutes     = []string{"upload", "query", "window", "resources", "predict", "invoke"}
	queryShapes    = []string{"narrow_src", "narrow_all", "geo_box", "wide_limit", "agg_covered", "agg_partial", "point_get", "select"}
)

func buildPerLayer() []metricDef {
	d := []metricDef{
		// Candidates for end-to-end that run-to-run spread demoted (README "Bounds").
		{"op_tail_ms", "ms", "lower", 0},
		{"op_tail_samples", "count", "higher", 0},
		{"tail_over_p50", "ratio", "lower", 0},
		{"fail_ratio", "ratio", "lower", 0},

		{"fleet.round.count", "count", "higher", 0},
		{"fleet.decision.busy_ms", "ms", "lower", 0},
		{"fleet.commit.busy_ms", "ms", "lower", 0},
		{"fleet.decision_share", "ratio", "lower", 0},
		{"fleet.offload_share", "ratio", "higher", 0},
		{"fleet.merge_telemetry_ms", "ms", "lower", 0},
		{"fleet.merge_flight_ms", "ms", "lower", 0},
		{"fleet.shard_speedup", "ratio", "higher", 0},

		{"edgeos.prepare.count", "count", "higher", 0},
		{"edgeos.prepare.busy_ms", "ms", "lower", 0},
		{"edgeos.prepare.ns_per_call", "ns", "lower", 0},
		{"edgeos.commit_local.busy_ms", "ms", "lower", 0},
		{"edgeos.commit_remote.busy_ms", "ms", "lower", 0},
		{"edgeos.commit_remote.ns_per_call", "ns", "lower", 0},
		{"edgeos.commit.fail_count", "count", "lower", 0},
		{"edgeos.hangup_ratio", "ratio", "lower", 0},

		{"offload.decide.ns_per_call", "ns", "lower", 0},
		{"offload.decide.allocs_per_call", "objects", "lower", 0},
		{"offload.estimate_site.ns_per_call", "ns", "lower", 0},
		{"offload.estimate_onboard.ns_per_call", "ns", "lower", 0},
		{"offload.execute.ns_per_call", "ns", "lower", 0},
		{"offload.fallback_ratio", "ratio", "lower", 0},
		{"offload.degraded_ratio", "ratio", "lower", 0},
		{"offload.deadline_hit_ratio", "ratio", "higher", 0},

		{"vcu.plan.ns_per_call", "ns", "lower", 0},
		{"vcu.plan.allocs_per_call", "objects", "lower", 0},
		{"vcu.run.ns_per_call", "ns", "lower", 0},
		{"tasks.topo_order.ns_per_call", "ns", "lower", 0},
		{"tasks.topo_order.allocs_per_call", "objects", "lower", 0},
		{"tasks.critical_path.ns_per_call", "ns", "lower", 0},
		{"xedge.estimate_exec.ns_per_call", "ns", "lower", 0},
		{"xedge.submit.ns_per_call", "ns", "lower", 0},
		{"xedge.pending_work_s", "s", "lower", 0},
		{"faults.advance.busy_ms", "ms", "lower", 0},
		{"sim.event_loop.ns_per_event", "ns", "lower", 0},

		{"telemetry.snapshot.ns_per_call", "ns", "lower", 0},
		{"telemetry.render.ns_per_call", "ns", "lower", 0},
		{"telemetry.merge.busy_ms", "ms", "lower", 0},
		{"obs.sampler_tick.ns_per_call", "ns", "lower", 0},
		{"obs.series_payload.ns_per_call", "ns", "lower", 0},
		{"obs.recorder_export.ns_per_call", "ns", "lower", 0},
		{"obs.merge.busy_ms", "ms", "lower", 0},
		{"trace.chrome_export.ns_per_call", "ns", "lower", 0},
		{"trace.overhead_frac", "ratio", "lower", 0},
		{"trace.unattributed_frac", "ratio", "lower", 0},
	}
	for _, r := range append(append([]string(nil), snapshotRoutes...), dataRoutes...) {
		d = append(d,
			metricDef{"libvdap." + r + ".rtt_us_p50", "us", "lower", 0},
			metricDef{"libvdap." + r + ".handler_us_p50", "us", "lower", 0})
	}
	for _, r := range snapshotRoutes {
		d = append(d, metricDef{"libvdap." + r + ".bytes_per_resp", "B", "lower", 0})
	}
	d = append(d,
		metricDef{"libvdap.cache.hit_ratio", "ratio", "higher", 0},
		metricDef{"libvdap.cache.shed_count", "count", "lower", 0},
		metricDef{"libvdap.rejected_count", "count", "lower", 0},
		metricDef{"libvdap.write_errors", "count", "lower", 0},
		metricDef{"libvdap.gzip_ratio", "ratio", "lower", 0},
		metricDef{"libvdap.transport_share", "ratio", "lower", 0},

		metricDef{"core.advance.count", "count", "higher", 0},
		metricDef{"core.advance.busy_ms", "ms", "lower", 0},
		metricDef{"core.advance.p99_ms", "ms", "lower", 0},
		metricDef{"core.tick_lag_ms_p99", "ms", "lower", 0},

		metricDef{"ddi.upload.ns_per_call", "ns", "lower", 0},
		metricDef{"ddi.download.ns_per_call", "ns", "lower", 0},
		metricDef{"ddi.aggregate.ns_per_call", "ns", "lower", 0},
		metricDef{"ddi.memcache.hit_ratio", "ratio", "higher", 0},

		metricDef{"ddi.put.busy_ms", "ms", "lower", 0},
		metricDef{"ddi.put.ns_per_rec", "ns", "lower", 0},
		metricDef{"ddi.seal.count", "count", "lower", 0},
		metricDef{"ddi.batch_stall_ms_max", "ms", "lower", 0},
		metricDef{"ddi.compact.count", "count", "lower", 0},
		metricDef{"ddi.compact.busy_ms", "ms", "lower", 0},
		metricDef{"ddi.compact.rec_per_s", "1/s", "higher", 0},
		metricDef{"ddi.delete_before.busy_ms", "ms", "lower", 0},
		metricDef{"ddi.segments.count", "count", "lower", 0},
		metricDef{"ddi.store_bytes_per_rec", "B", "lower", 0},
		metricDef{"ddi.write_amp", "ratio", "lower", 0},
		metricDef{"ddi.reopen_ms", "ms", "lower", 0},
		metricDef{"ddi.cold_scan_ms", "ms", "lower", 0},
		metricDef{"ddi.scan.open_us_p50", "us", "lower", 0},
		metricDef{"ddi.scan.iter_ns_per_row", "ns", "lower", 0},
		metricDef{"ddi.plan.skip_ratio", "ratio", "higher", 0},
		metricDef{"ddi.plan.rows_scanned_per_row_returned", "ratio", "lower", 0},
	)
	for _, s := range queryShapes {
		d = append(d, metricDef{"ddi.q." + s + ".us_p50", "us", "lower", 0})
	}
	d = append(d,
		metricDef{"huffman.encode.mb_per_s", "MB/s", "higher", 0},
		metricDef{"huffman.decode.mb_per_s", "MB/s", "higher", 0},

		metricDef{"runtime.gc_cpu_frac", "ratio", "lower", 0},
		metricDef{"runtime.gc_pause_ms_max", "ms", "lower", 0},
		metricDef{"runtime.heap_live_mb", "MB", "lower", 0},
		metricDef{"runtime.goroutines_peak", "count", "lower", 0},
		metricDef{"loadgen.sched_lag_ms_p99", "ms", "lower", 0},
		metricDef{"loadgen.busy_frac", "ratio", "lower", 0},
		metricDef{"loadgen.max_rate_ok_rps", "1/s", "higher", 0},
	)
	return d
}

// result is what one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	E2E       map[string]float64 `json:"end_to_end,omitempty"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Traced: traced, Correct: true,
		E2E: map[string]float64{}, Layer: map[string]float64{}, Digests: map[string]string{},
	}
}

// fail records a correctness failure; the run then exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// window fills the end-to-end metrics (and their demoted companions) that
// every workload derives the same way from its meter and latency samples.
func (r *result) window(m *meter, lat latencies, setups []float64) {
	r.E2E["setup_s"] = median(setups)
	r.note("set-ups: %.4g s", setups)
	r.E2E["ops_per_s"], r.E2E["cpu_ms_per_kop"], r.E2E["allocs_per_op"], r.E2E["alloc_kb_per_op"] = m.rates()
	r.E2E["op_p50_ms"] = lat.P50
	r.Layer["op_tail_ms"] = lat.Tail
	r.Layer["op_tail_samples"] = float64(lat.N)
	if lat.P50 > 0 {
		r.Layer["tail_over_p50"] = lat.Tail / lat.P50
	}
	if !lat.Supports {
		r.note("p%g has only %d samples beyond it; the percentile rule wants ten (p%g for n=%d)", lat.TailPct, lat.Beyond, supportedTail(lat.N), lat.N)
	}
	t := m.total()
	r.note("window: %d ops in %v over %d slices (whole-window %.1f op/s), %.1f%% of it stolen by the host", t.ops, t.wall.Round(time.Millisecond), len(m.slices), float64(t.ops)/t.wall.Seconds(), 100*(1-float64(t.granted())/float64(t.wall)))
	if rates := m.sliceRates(); len(rates) > 0 {
		r.note("slice op/s: min=%.4g p25=%.4g p50=%.4g p75=%.4g max=%.4g", rates[0], percentile(rates, 25), percentile(rates, 50), percentile(rates, 75), rates[len(rates)-1])
	}
	r.note("latency unit: n=%d min=%.4fms p10=%.4fms p25=%.4fms p50=%.4fms p%g=%.4fms (%d beyond) max=%.4fms",
		lat.N, lat.Min, lat.P10, lat.P25, lat.P50, lat.TailPct, lat.Tail, lat.Beyond, lat.Max)
}

// metricValue is the wire form of one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the one-line JSON object the pipeline reads: the
// end-to-end set for an untraced run, the per-layer set for a traced one.
func (r *result) resultLine() ([]byte, error) {
	defs, vals := endToEnd, r.E2E
	if r.Traced {
		defs, vals = perLayer, r.Layer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		ms[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// printTable writes every metric the run produced by name, with its unit.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Traced, r.Correct, r.Attempted, r.Failed)
	row := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-44s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	row(endToEnd, r.E2E)
	row(perLayer, r.Layer)
	for _, k := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "  digest %-37s %s\n", k, r.Digests[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// manifest renders BENCHMARK.json from the tables above, so the file and the
// program cannot drift apart (a test compares the two).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Gated {
			m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, pl{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
