package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// quickCtx is a quick-scale run whose scratch files live in the test's own
// temp dir.
func quickCtx(t *testing.T, traced bool) *runCtx {
	dir := t.TempDir()
	return &runCtx{
		seed: 42, seconds: time.Second, traced: traced, sc: quickScale,
		tmpRoot: filepath.Join(dir, "tmp"), outDir: filepath.Join(dir, "out"),
	}
}

func defNames(defs []metricDef) map[string]bool {
	names := make(map[string]bool, len(defs))
	for _, d := range defs {
		names[d.Name] = true
	}
	return names
}

// Every workload, at quick scale, through the same path the command takes:
// all correctness checks run (digests against a second shard count and the
// golden file, cached against uncached bodies, upload read-back, store
// against naive filter), so a later API change that breaks the benchmark
// fails here first.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads for about a second each")
	}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			ctx := quickCtx(t, false)
			res, err := runOne(ctx, wl)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range endToEnd {
				if v, ok := res.E2E[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v); every workload must report a non-zero value", d.Name, v, ok)
				}
			}
			if _, err := res.resultLine(); err != nil {
				t.Error(err)
			}
			if left, _ := filepath.Glob(filepath.Join(ctx.tmpRoot, "*-*")); len(left) > 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
		})
	}
}

// The traced pass: spans are written, self times add up, and on the fleet
// workloads the hand-driven rounds reproduce the executor's RoundResults.
func TestQuickTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads for about a second each")
	}
	layerNames := defNames(perLayer)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			ctx := quickCtx(t, true)
			res, err := runOne(ctx, wl)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
			}
			for name := range res.Layer {
				if !layerNames[name] {
					t.Errorf("layer metric %q is not declared in the per-layer table", name)
				}
			}
			if _, ok := res.Layer["trace.overhead_frac"]; !ok {
				t.Error("no trace.overhead_frac")
			}
			info, err := os.Stat(filepath.Join(ctx.outDir, "trace-"+wl.Name+".json"))
			if err != nil || info.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestSecondWorkloadIsRefusedWhileOneRuns(t *testing.T) {
	dir := t.TempDir()
	unlock, err := lockMachine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lockMachine(dir); err == nil {
		t.Error("a second lock was granted while the first was held")
	}
	unlock()
	again, err := lockMachine(dir)
	if err != nil {
		t.Fatalf("lock not released: %v", err)
	}
	again()
}

// BENCHMARK.json at the repository root is generated from the metric tables
// (go run . -manifest); the two must not drift.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; the manifest allows 1 to 128", n)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s (%s) exceeds the manifest's name or unit length", d.Name, d.Unit)
		}
	}
}
