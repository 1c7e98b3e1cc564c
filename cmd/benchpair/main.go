// Command benchpair measures a parent revision against the working tree with
// the repository's benchmark, the way a change that claims a gain must:
// alternating pairs on one host, every run reported, medians with quartiles
// and the pair win count per metric.
//
// Usage (from the repository root; `make bench-pair W=... PARENT=...`):
//
//	benchpair -workload serve_snapshot -parent HEAD~1 [-pairs 10] [-seed 101] [-out BENCH_prNN.json]
//
// The parent's committed files are extracted (`git archive`) into a
// throw-away directory under $TMPDIR, so both sides build from source in
// their own tree with the benchmark/ each one carries. Pair i runs both
// sides at seed+i, parent first when i is even. Same host only: the numbers
// mean nothing across machines, which is why CI does not run this. -out
// also writes what it prints as JSON (see pairFile): each side's commit and
// machine, every run, and the per-metric summary.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// manifest is the part of BENCHMARK.json the pairing needs: the command,
// the run length, and which way each metric is better.
type manifest struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
}

type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func run() error {
	workload := flag.String("workload", "", "benchmark workload to run (required)")
	parent := flag.String("parent", "", "revision to compare the working tree against (required)")
	pairs := flag.Int("pairs", 10, "number of parent/change pairs")
	seed := flag.Int64("seed", 101, "seed of the first pair; pair i runs both sides at seed+i")
	out := flag.String("out", "", "also write the sides, every run and the summary to this JSON file")
	flag.Parse()
	if *workload == "" || *parent == "" || *pairs < 1 {
		return fmt.Errorf("need -workload, -parent and a positive -pairs")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	better := map[string]string{}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		better[d.Name] = d.Better
	}

	parentDir, err := os.MkdirTemp("", "bench-pair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parentDir)
	if err := extract(*parent, parentDir); err != nil {
		return err
	}
	dirs := [2]string{parentDir, "."}
	pf := pairFile{Workload: *workload, Pairs: *pairs, Seed: *seed, RunSeconds: m.RunSeconds,
		Sides: [2]sideEnv{sideOf("parent", *parent, parentDir), sideOf("change", "HEAD", ".")}}
	pf.Sides[1].WorkingTree = true

	fmt.Printf("# %s: %d pairs, parent %s against the working tree at %s, %g s per run\n",
		*workload, *pairs, pf.Sides[0].Commit, pf.Sides[1].Commit, m.RunSeconds)
	var names []string                  // metrics in the order the benchmark prints them
	values := map[string][2][]float64{} // metric -> per side, one value per pair
	for i := 0; i < *pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // parent first on even pairs
			s := &pf.Sides[side]
			args := append(append([]string(nil), m.Command[1:]...), "--workload", *workload, "--seed", strconv.FormatInt(*seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(m.RunSeconds, 'g', -1, 64), "--trace", "0")
			got, order, err := measure(dirs[side], m.Command[0], args)
			if err != nil {
				return fmt.Errorf("pair %d %s: %w", i+1, s.Name, err)
			}
			r := pairRun{Pair: i + 1, Seed: *seed + int64(i), Side: s.Name, Ran: []string{"first", "second"}[k], Metrics: got}
			pf.Runs = append(pf.Runs, r)
			fmt.Printf("pair %2d seed %d %s (ran %s):", r.Pair, r.Seed, r.Side, r.Ran)
			for _, name := range order {
				if _, known := values[name]; !known {
					names = append(names, name)
				}
				v := values[name]
				v[side] = append(v[side], got[name])
				values[name] = v
				fmt.Printf(" %s=%.6g", name, got[name])
			}
			fmt.Println()
		}
	}

	pf.Metrics = summarise(names, values, better, *pairs)
	fmt.Printf("\n%-36s %14s %28s %14s %28s %s\n", "metric", "parent median", "[q1, q3]", "change median", "[q1, q3]", "change wins")
	for _, ms := range pf.Metrics {
		wins := "-"
		if ms.Wins != nil {
			wins = fmt.Sprintf("%d/%d (%s is better)", *ms.Wins, *pairs, ms.Better)
		}
		fmt.Printf("%-36s %14.6g %28s %14.6g %28s %s\n", ms.Name, ms.Parent.Median, ms.Parent.spread(), ms.Change.Median, ms.Change.spread(), wins)
	}
	if *out != "" {
		return writePairFile(*out, &pf)
	}
	return nil
}

// pairFile is what -out writes: the pairing's inputs, each side's commit
// and machine, every run in the order it ran, and each metric's summary.
type pairFile struct {
	Workload   string          `json:"workload"`
	Pairs      int             `json:"pairs"`
	Seed       int64           `json:"seed"` // pair i runs both sides at seed+i-1
	RunSeconds float64         `json:"run_seconds"`
	Sides      [2]sideEnv      `json:"sides"` // parent, change
	Runs       []pairRun       `json:"runs"`
	Metrics    []metricSummary `json:"metrics"`
}

// sideEnv is one side's commit and the machine its runs reported.
type sideEnv struct {
	Name        string `json:"name"`
	Commit      string `json:"commit"`
	WorkingTree bool   `json:"working_tree,omitempty"` // the change side runs the working tree on top of Commit
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
}

// pairRun is one run of one side: every metric it printed.
type pairRun struct {
	Pair    int                `json:"pair"`
	Seed    int64              `json:"seed"`
	Side    string             `json:"side"`
	Ran     string             `json:"ran"` // "first" or "second" in its pair
	Metrics map[string]float64 `json:"metrics"`
}

// metricSummary is one metric over every pair: each side's median and
// quartiles and, when BENCHMARK.json says which way is better, how many
// pairs the change won.
type metricSummary struct {
	Name   string    `json:"name"`
	Better string    `json:"better,omitempty"`
	Parent quartiles `json:"parent"`
	Change quartiles `json:"change"`
	Wins   *int      `json:"wins"`
}

type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func quartilesOf(xs []float64) quartiles {
	return quartiles{Q1: quantile(xs, 0.25), Median: quantile(xs, 0.5), Q3: quantile(xs, 0.75)}
}

func (q quartiles) spread() string { return fmt.Sprintf("[%.6g, %.6g]", q.Q1, q.Q3) }

// summarise gives each metric every run printed, in names' order, its
// summary; values holds one value per pair for each side.
func summarise(names []string, values map[string][2][]float64, better map[string]string, pairs int) []metricSummary {
	var out []metricSummary
	for _, name := range names {
		p, c := values[name][0], values[name][1]
		if len(p) != pairs || len(c) != pairs {
			continue // not printed by every run
		}
		ms := metricSummary{Name: name, Better: better[name], Parent: quartilesOf(p), Change: quartilesOf(c)}
		if ms.Better != "" {
			n := 0
			for i := range p {
				if (ms.Better == "higher" && c[i] > p[i]) || (ms.Better == "lower" && c[i] < p[i]) {
					n++
				}
			}
			ms.Wins = &n
		}
		out = append(out, ms)
	}
	return out
}

func writePairFile(path string, pf *pairFile) error {
	b, err := json.MarshalIndent(pf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// extract unpacks the committed files of rev into dir.
func extract(rev, dir string) error {
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait()
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return untar.Wait()
}

func revision(rev string) string {
	out, err := exec.Command("git", "rev-parse", "--short", rev).Output()
	if err != nil {
		return rev
	}
	return strings.TrimSpace(string(out))
}

// measure runs the benchmark once in dir and returns every metric it named
// on standard error ("  name  value unit"), with the order it named them in.
// A run that fails a correctness check exits non-zero and is an error here.
func measure(dir, name string, args []string) (map[string]float64, []string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr // the result line on stdout repeats a subset of these
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%v: %w\n%s", cmd.Args, err, stderr.Bytes())
	}
	got := map[string]float64{}
	var order []string
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || !strings.HasPrefix(sc.Text(), "  ") || f[0] == "#" {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		got[f[0]] = v
		order = append(order, f[0])
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("%v printed no metrics:\n%s", cmd.Args, stderr.Bytes())
	}
	return got, order, nil
}

// sideOf describes one side: its commit, and the machine and toolchain its
// benchmark runs on. The benchmark's processes inherit benchpair's CPU set
// and environment, so benchpair's own NumCPU and GOMAXPROCS are theirs;
// the Go version is the one run.sh builds with in dir.
func sideOf(name, rev, dir string) sideEnv {
	s := sideEnv{Name: name, Commit: revision(rev), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir, cmd.Env = dir, append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.Output(); err == nil {
		s.GoVersion = strings.TrimSpace(string(out))
	}
	return s
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
