package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRunEachExperiment smoke-tests every experiment through the CLI entry
// point with short parameters.
func TestRunEachExperiment(t *testing.T) {
	fast := []string{"table1", "fig3", "dsf", "elastic", "arch", "collab", "commute", "fleet", "sweep", "hdmap", "compress", "retrain", "pbeam"}
	for _, exp := range fast {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(options{exp: exp, seed: 7, duration: 4 * time.Second, dir: t.TempDir(), reps: 4, parallel: 2}); err != nil {
				t.Fatalf("run(%s): %v", exp, err)
			}
		})
	}
}

func TestRunFig2Short(t *testing.T) {
	if err := run(options{exp: "fig2", seed: 7, duration: 4 * time.Second}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDDICache(t *testing.T) {
	if err := run(options{exp: "ddicache", seed: 7, dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDDIStore smoke-tests the E20 columnar-store sweep end to end at a
// small corpus size.
func TestRunDDIStore(t *testing.T) {
	if err := run(options{exp: "ddi", seed: 7, dir: t.TempDir(), parallel: 2, records: 50_000}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDDIStoreDeterministicAcrossParallel: the E20 stdout digest must be
// byte-identical no matter how many query-sweep workers ran.
func TestRunDDIStoreDeterministicAcrossParallel(t *testing.T) {
	at := func(parallel int) []byte {
		return captureStdout(t, func() error {
			return run(options{exp: "ddi", seed: 42, dir: t.TempDir(), parallel: parallel, records: 120_000})
		})
	}
	serial := at(1)
	if got := at(4); !bytes.Equal(serial, got) {
		t.Fatalf("-parallel 4 digest differs from -parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, got)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestRunSweepDeterministicAcrossParallel: the acceptance criterion for the
// parallel runner — a ≥8-replication sweep at -parallel 8 must be
// byte-identical to the -parallel 1 run for the same seed.
func TestRunSweepDeterministicAcrossParallel(t *testing.T) {
	at := func(parallel int) []byte {
		return captureStdout(t, func() error {
			return run(options{exp: "sweep", seed: 42, reps: 8, parallel: parallel})
		})
	}
	serial := at(1)
	for _, parallel := range []int{2, 8} {
		if got := at(parallel); !bytes.Equal(serial, got) {
			t.Fatalf("-parallel %d output differs from -parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
				parallel, serial, got)
		}
	}
	if len(serial) == 0 {
		t.Fatal("sweep produced no output")
	}
}

// TestRunScaleDeterministicAcrossShards: the acceptance criterion for
// the epoch-barrier fleet executor — the E16 stdout (deterministic
// simulation table, digests included) must be byte-identical between
// -shards 1 and -shards 4 for the same seed.
func TestRunScaleDeterministicAcrossShards(t *testing.T) {
	at := func(shards int) []byte {
		return captureStdout(t, func() error {
			return run(options{exp: "scale", seed: 42, vehicles: "64", shards: shards})
		})
	}
	base := at(1)
	if len(base) == 0 {
		t.Fatal("scale produced no output")
	}
	if got := at(4); !bytes.Equal(base, got) {
		t.Fatalf("-shards 4 stdout differs from -shards 1:\n--- base ---\n%s\n--- got ---\n%s", base, got)
	}
}

func TestParseFleetSizes(t *testing.T) {
	if got, err := parseFleetSizes(" 100, 1000 "); err != nil || len(got) != 2 || got[0] != 100 || got[1] != 1000 {
		t.Fatalf("parseFleetSizes = %v, %v", got, err)
	}
	if got, err := parseFleetSizes(""); err != nil || got != nil {
		t.Fatalf("empty flag = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "0", "-3", "1,,2"} {
		if _, err := parseFleetSizes(bad); err == nil {
			t.Fatalf("parseFleetSizes(%q) accepted", bad)
		}
	}
}

// TestNegativeShardsRejected: a negative -shards is an error (exit 1), not a
// silent fall back to the default sweep.
func TestNegativeShardsRejected(t *testing.T) {
	for _, exp := range []string{"scale", "obs"} {
		if code := mainExit([]string{"-exp", exp, "-vehicles", "8", "-reps", "1", "-shards", "-2"}); code != 1 {
			t.Errorf("-exp %s -shards -2: exit code %d, want 1", exp, code)
		}
	}
}

// TestAskedForValuesAreNotReplaced: a -duration shorter than one GOP and a
// -reps of zero are errors that name the value (exit 1), not a silent run at
// a default nobody asked for.
func TestAskedForValuesAreNotReplaced(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig2", "-duration", "1s"}, "duration 1s"},
		{[]string{"-exp", "fig2", "-duration", "0s"}, "duration 0s"},
		{[]string{"-exp", "fig2", "-duration", "-1s"}, "duration -1s"},
		{[]string{"-exp", "sweep", "-reps", "0"}, "at least one replication, got 0"},
		{[]string{"-exp", "chaos", "-reps", "0"}, "at least one replication, got 0"},
		{[]string{"-exp", "obs", "-reps", "0"}, "at least one replication, got 0"},
	} {
		f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stderr
		os.Stderr = f
		code := mainExit(tt.args)
		os.Stderr = old
		f.Close()
		msg, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 || !strings.Contains(string(msg), tt.want) {
			t.Errorf("%v: exit code %d, stderr %q; want 1 and %q", tt.args, code, msg, tt.want)
		}
	}
}

// TestScaleSeedZeroIsSeedZero: -exp scale runs the seed it is given, zero
// included, instead of substituting 42. At 33 vehicles the world depends on
// the seed (most small fleet sizes do not), so the two tables differ.
func TestScaleSeedZeroIsSeedZero(t *testing.T) {
	at := func(seed int64) []byte {
		return captureStdout(t, func() error {
			return run(options{exp: "scale", seed: seed, vehicles: "33", shards: 1})
		})
	}
	if zero, fortyTwo := at(0), at(42); bytes.Equal(zero, fortyTwo) {
		t.Fatalf("-seed 0 printed the -seed 42 table:\n%s", zero)
	}
}

// TestExperimentLabelsMatchCatalogue checks experimentList's labels against
// the two other lists of experiments: every golden file
// internal/experiments/testdata/eNN[b|c]_<name>.golden belongs to the entry
// <name> labelled E<NN>[b|c], every label is an `## E… — ` heading of
// EXPERIMENTS.md, and the only headings without an entry are E15 and E18,
// which benchmark/ measures.
func TestExperimentLabelsMatchCatalogue(t *testing.T) {
	labels := map[string]string{}
	for _, e := range experimentList {
		labels[e.name] = e.label
	}
	goldens, err := filepath.Glob("../../internal/experiments/testdata/e*.golden")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no experiment goldens: %v", err)
	}
	goldenName := regexp.MustCompile(`^e0*(\d+[bc]?)_(\w+)\.golden$`)
	for _, path := range goldens {
		m := goldenName.FindStringSubmatch(filepath.Base(path))
		if m == nil {
			t.Errorf("%s: not an eNN[b|c]_<name>.golden file", path)
			continue
		}
		if got, ok := labels[m[2]]; !ok || got != "E"+m[1] {
			t.Errorf("%s: experiment %q has label %q, want E%s", filepath.Base(path), m[2], got, m[1])
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (E\d+[bc]?) — `).FindAllStringSubmatch(string(doc), -1) {
		headings[m[1]] = true
	}
	used := map[string]bool{}
	for _, e := range experimentList {
		if !headings[e.label] {
			t.Errorf("experiment %q: label %q has no EXPERIMENTS.md heading", e.name, e.label)
		}
		if used[e.label] {
			t.Errorf("experiment %q: label %q is used twice", e.name, e.label)
		}
		used[e.label] = true
	}
	var orphans []string
	for h := range headings {
		if !used[h] {
			orphans = append(orphans, h)
		}
	}
	if slices.Sort(orphans); !slices.Equal(orphans, []string{"E15", "E18"}) {
		t.Errorf("EXPERIMENTS.md headings with no experiment: %v, want [E15 E18]", orphans)
	}
}

// TestRunArchTraced checks the -trace path: the arch experiment must emit
// a valid Chrome trace covering the five component lanes, byte-identical
// across same-seed runs.
func TestRunArchTraced(t *testing.T) {
	once := func() []byte {
		t.Helper()
		out := filepath.Join(t.TempDir(), "out.json")
		if err := run(options{exp: "arch", seed: 7, traceOut: out}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := once(), once()
	if !bytes.Equal(first, second) {
		t.Fatal("trace output differs across identical runs")
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	lanes := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if n, ok := ev.Args["name"].(string); ok {
				lanes[n] = true
			}
		}
	}
	for _, comp := range []string{"vcu", "offload", "network", "xedge", "cloud", "ddi"} {
		if !lanes[comp] {
			t.Fatalf("component %q missing from trace lanes %v", comp, lanes)
		}
	}
}

// TestRunUnknownExperiment: an unknown -exp fails with the full listing —
// and the retired -exp perf, serve and chaosserve are now exactly that.
func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"warp-drive", "perf", "serve", "chaosserve", ""} {
		err := run(options{exp: exp, seed: 1})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("run(%q) = %v, want unknown-experiment error", exp, err)
		}
		if !strings.Contains(err.Error(), expUsage()) {
			t.Fatalf("run(%q) error does not carry the experiment listing:\n%s", exp, err)
		}
	}
}

// TestRemovedFlagsRejected: the five flags that fed the deleted load
// generator are unknown flags now (exit 2, like any other), not ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, name := range []string{"clients", "servedur", "mix", "serveout", "chaosout"} {
		if code := mainExit([]string{"-exp", "netchaos", "-" + name, "1"}); code != 2 {
			t.Errorf("-%s: exit code %d, want 2", name, code)
		}
	}
}

// TestRunNetChaosDeterministicAcrossParallel: the compiled E19 plan on
// stdout must be byte-identical no matter how many workers compiled it.
func TestRunNetChaosDeterministicAcrossParallel(t *testing.T) {
	at := func(parallel int) []byte {
		return captureStdout(t, func() error {
			return run(options{exp: "netchaos", seed: 7, parallel: parallel})
		})
	}
	serial := at(1)
	if !bytes.HasPrefix(serial, []byte("netchaos seed=7 conns=")) {
		t.Fatalf("netchaos did not print the plan:\n%.200s", serial)
	}
	if got := at(4); !bytes.Equal(serial, got) {
		t.Fatal("-parallel 4 plan differs from -parallel 1")
	}
}

// TestExperimentTable checks the one experiment table structurally: names
// and descriptions are present and unique, nothing shadows "all", every
// entry can run, and the usage line and listing name every entry in table
// order.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	names := []string{"all"}
	for _, e := range experimentList {
		if e.name == "" || e.label == "" || e.desc == "" || e.run == nil {
			t.Fatalf("incomplete experiment entry %+v", e)
		}
		if seen[e.name] {
			t.Fatalf("experiment %q listed twice", e.name)
		}
		seen[e.name] = true
		names = append(names, e.name)
	}
	if got := strings.Split(expNames(), "|"); !slices.Equal(got, names) {
		t.Fatalf("flag usage %v, table %v", got, names)
	}
	lines := strings.Split(strings.TrimSuffix(expUsage(), "\n"), "\n")[1:]
	if len(lines) != len(names) {
		t.Fatalf("listing has %d entries, table %d:\n%s", len(lines), len(names), expUsage())
	}
	for i, e := range experimentList {
		if f := strings.Fields(lines[i+1]); f[0] != e.name || !strings.HasSuffix(lines[i+1], e.desc) {
			t.Fatalf("listing line %q does not describe %q", lines[i+1], e.name)
		}
	}
}

// TestFailingRunLeavesWholeCPUProfile: a failing -exp must still stop and
// close the -cpuprofile (the exit code is returned, not os.Exit-ed past the
// defers) — that is the run being diagnosed.
func TestFailingRunLeavesWholeCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if code := mainExit([]string{"-exp", "warp-drive", "-cpuprofile", prof}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	// A second profile can start only if the first was stopped.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("profiler still running after mainExit: %v", err)
	}
	pprof.StopCPUProfile()
	// A CPU profile is a gzip stream: it reads to EOF only if it was
	// flushed whole.
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream: %v", err)
	}
	if body, err := io.ReadAll(gz); err != nil || len(body) == 0 {
		t.Fatalf("profile truncated: %d bytes, %v", len(body), err)
	}
}

// TestRunObsDeterministic is the E17 acceptance criterion: stdout (health
// table + flight-recorder log + series summary) and RUN_REPORT.json must
// be byte-identical across -parallel and -shards values for the same seed.
func TestRunObsDeterministic(t *testing.T) {
	at := func(parallel, shards int) ([]byte, []byte) {
		report := filepath.Join(t.TempDir(), "run_report.json")
		out := captureStdout(t, func() error {
			return run(options{exp: "obs", seed: 42, runReport: report, reps: 2, parallel: parallel, shards: shards})
		})
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		return out, data
	}
	baseOut, baseReport := at(1, 1)
	if len(baseOut) == 0 {
		t.Fatal("obs produced no output")
	}
	if !bytes.Contains(baseReport, []byte("openvdap.run_report/v1")) {
		t.Fatalf("report missing schema:\n%s", baseReport[:min(len(baseReport), 200)])
	}
	for _, cell := range []struct{ parallel, shards int }{{4, 1}, {1, 4}, {2, 3}} {
		out, rep := at(cell.parallel, cell.shards)
		if !bytes.Equal(baseOut, out) {
			t.Fatalf("-parallel %d -shards %d stdout differs from baseline", cell.parallel, cell.shards)
		}
		if !bytes.Equal(baseReport, rep) {
			t.Fatalf("-parallel %d -shards %d RUN_REPORT.json differs from baseline", cell.parallel, cell.shards)
		}
	}
	// The report must actually carry the observability payload.
	var doc struct {
		RoundHealth []map[string]any `json:"roundHealth"`
		Events      []map[string]any `json:"events"`
		Series      struct {
			Series []map[string]any `json:"series"`
		} `json:"series"`
	}
	if err := json.Unmarshal(baseReport, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.RoundHealth) == 0 || len(doc.Events) == 0 || len(doc.Series.Series) == 0 {
		t.Fatalf("report payload empty: rounds=%d events=%d series=%d",
			len(doc.RoundHealth), len(doc.Events), len(doc.Series.Series))
	}
}
