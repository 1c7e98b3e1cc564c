package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runSet is the untraced runs of one result file: end-to-end values by
// workload and metric, and digests by workload and seed.
type runSet struct {
	values  map[string]map[string][]float64
	digests map[string]map[int64]map[string]string
}

func loadRuns(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := &runSet{
		values:  make(map[string]map[string][]float64),
		digests: make(map[string]map[int64]map[string]string),
	}
	for _, r := range rf.Runs {
		if r.Traced {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a %s run failed its correctness checks", path, r.Workload)
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = make(map[string][]float64)
			set.digests[r.Workload] = make(map[int64]map[string]string)
		}
		for name, v := range r.E2E {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], v)
		}
		set.digests[r.Workload][r.Seed] = r.Digests
	}
	return set, nil
}

// pairBound is what -check holds one (workload, metric) pair to. It follows
// the issue's rule: bound = max(0.03, 2 x the relative interquartile distance
// of repeated runs of one commit), and a pair that would need more than
// fineBoundMax is demoted to a diagnostic, not given a wider bound.
type pairBound struct {
	Spread float64 `json:"spread"` // widest relative IQR among the baseline sets
	Bound  float64 `json:"bound"`  // max(0.03, 2 x spread), rounded up to a hundredth
	Gated  bool    `json:"gated"`  // bound <= fineBoundMax, on a workload BENCHMARK.json lists
}

const (
	fineBoundMin = 0.03
	fineBoundMax = 0.10
)

// boundsJSON is bounds.json: the pair bounds derived from the committed
// baseline sets (`-bounds baseline/set-a.json baseline/set-b.json`).
//
//go:embed bounds.json
var boundsJSON []byte

type pairBounds map[string]map[string]pairBound

func loadBounds() (pairBounds, error) {
	var pb pairBounds
	if err := json.Unmarshal(boundsJSON, &pb); err != nil {
		return nil, fmt.Errorf("bounds.json: %w", err)
	}
	return pb, nil
}

// deriveBounds computes the pair bounds from sets of runs of one commit.
func deriveBounds(sets ...*runSet) pairBounds {
	pb := make(pairBounds)
	for _, wl := range workloads {
		pb[wl.Name] = make(map[string]pairBound)
		for _, d := range endToEnd {
			var spread float64
			for _, s := range sets {
				spread = max(spread, relSpread(s.values[wl.Name][d.Name]))
			}
			bound := math.Ceil(max(fineBoundMin, 2*spread)*100-1e-9) / 100
			pb[wl.Name][d.Name] = pairBound{
				Spread: math.Round(spread*1e4) / 1e4,
				Bound:  bound,
				Gated:  wl.Gated && bound <= fineBoundMax,
			}
		}
	}
	return pb
}

// runBounds prints bounds.json for the given baseline files.
func runBounds(paths []string, w io.Writer) int {
	var sets []*runSet
	for _, p := range paths {
		s, err := loadRuns(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -bounds:", err)
			return 2
		}
		sets = append(sets, s)
	}
	b, err := json.MarshalIndent(deriveBounds(sets...), "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -bounds:", err)
		return 2
	}
	fmt.Fprintln(w, string(b))
	return 0
}

// verdict compares the medians of one (workload, metric) pair from two sets
// of runs against a bound. worse is how much the B median is worse than the
// A median as a share of A; spread is the wider of the two sets'
// interquartile distance over its median.
//
//	regressed   B is worse than A by more than the bound
//	unresolved  B is not worse by more than the bound, but the spread is
//	            wider than the bound, so "unchanged" cannot be said either
//	            (unless every B run beats every A run)
//	ok          otherwise
func verdict(d metricDef, bound float64, a, b []float64) (status string, worse, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	spread = max(relSpread(a), relSpread(b))
	switch {
	case worse > bound:
		return "regressed", worse, spread
	case spread > bound && !allBetter(d, a, b):
		return "unresolved", worse, spread
	}
	return "ok", worse, spread
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if d.Better == "higher" && y <= x || d.Better == "lower" && y >= x {
				return false
			}
		}
	}
	return true
}

// runCheck compares two result files row by row and returns the exit code:
// 1 when any row regressed.
func runCheck(pathA, pathB string, w io.Writer) int {
	a, errA := loadRuns(pathA)
	b, errB := loadRuns(pathB)
	pb, errP := loadBounds()
	if err := errors.Join(errA, errB, errP); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -check:", err)
		return 2
	}
	return printCheck(a, b, pb, w)
}

// printCheck prints one row per (workload, metric) pair. A gated pair is held
// to its own bound. A demoted pair — one whose run-to-run spread would need a
// bound above fineBoundMax, or any pair of a workload BENCHMARK.json does not
// list — is a diagnostic: it shows its numbers and fails only where the
// pipeline itself would, beyond the manifest's bound on a listed workload.
// Digests are compared wherever both files ran a workload at the same seed.
func printCheck(a, b *runSet, pb pairBounds, w io.Writer) int {
	regressed := 0
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values[wl.Name][d.Name], b.values[wl.Name][d.Name]
			p, known := pb[wl.Name][d.Name]
			if !known {
				p = pairBound{Bound: d.Bound}
			}
			if len(va) == 0 || len(vb) == 0 {
				if wl.Gated {
					fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %8s %6.2f  missing\n", wl.Name, d.Name, "-", "-", "-", "-", p.Bound)
					regressed++
				}
				continue
			}
			bound := p.Bound
			if !p.Gated {
				bound = d.Bound // the manifest's: what the pipeline enforces
			}
			status, worse, spread := verdict(d, bound, va, vb)
			if status == "regressed" && wl.Gated {
				regressed++
			}
			if !wl.Gated {
				status = "diagnostic: " + status + " (workload not in BENCHMARK.json)"
			} else if !p.Gated {
				status = fmt.Sprintf("diagnostic: %s (its own bound would be %.2f; held to the manifest's)", status, p.Bound)
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %6.2f  %s (n=%d,%d)\n",
				wl.Name, d.Name, median(va), median(vb), 100*worse, 100*spread, bound, status, len(va), len(vb))
		}
	}
	compared, differing := 0, 0
	for _, wl := range workloads {
		for _, seed := range sortedKeys(a.digests[wl.Name]) {
			da, db := a.digests[wl.Name][seed], b.digests[wl.Name][seed]
			for _, name := range sortedKeys(da) {
				y, ok := db[name]
				if !ok {
					continue
				}
				compared++
				if x := da[name]; x != y {
					differing++
					fmt.Fprintf(w, "%-15s digest %q at seed %d: %s in A, %s in B\n", wl.Name, name, seed, x, y)
				}
			}
		}
	}
	fmt.Fprintf(w, "digests: %d compared at shared seeds, %d differ\n", compared, differing)
	regressed += differing
	if regressed > 0 {
		fmt.Fprintf(w, "%d row(s) regressed, missing or differing\n", regressed)
		return 1
	}
	return 0
}

func sortedKeys[K int64 | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
