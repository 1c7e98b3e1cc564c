// Command benchpair measures a parent revision against the working tree with
// the repository's benchmark, the way a change that claims a gain must:
// alternating pairs on one host, every run reported, medians with quartiles
// and the pair win count per metric.
//
// Usage (from the repository root; `make bench-pair W=... PARENT=...`):
//
//	benchpair -workload serve_snapshot -parent HEAD~1 [-pairs 10] [-seed 101]
//
// The parent's committed files are extracted (`git archive`) into a
// throw-away directory under $TMPDIR, so both sides build from source in
// their own tree with the benchmark/ each one carries. Pair i runs both
// sides at seed+i, parent first when i is even. Same host only: the numbers
// mean nothing across machines, which is why CI does not run this.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
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
	sides := []struct{ name, dir string }{{"parent", parentDir}, {"change", "."}}

	fmt.Printf("# %s: %d pairs, parent %s against the working tree at %s, %g s per run\n",
		*workload, *pairs, revision(*parent), revision("HEAD"), m.RunSeconds)
	var names []string                  // metrics in the order the benchmark prints them
	values := map[string][2][]float64{} // metric -> per side, one value per pair
	for i := 0; i < *pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // parent first on even pairs
			args := append(append([]string(nil), m.Command[1:]...), "--workload", *workload, "--seed", strconv.FormatInt(*seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(m.RunSeconds, 'g', -1, 64), "--trace", "0")
			got, order, err := measure(sides[side].dir, m.Command[0], args)
			if err != nil {
				return fmt.Errorf("pair %d %s: %w", i+1, sides[side].name, err)
			}
			fmt.Printf("pair %2d seed %d %s (ran %s):", i+1, *seed+int64(i), sides[side].name, []string{"first", "second"}[k])
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

	fmt.Printf("\n%-36s %14s %28s %14s %28s %s\n", "metric", "parent median", "[q1, q3]", "change median", "[q1, q3]", "change wins")
	for _, name := range names {
		p, c := values[name][0], values[name][1]
		if len(p) != *pairs || len(c) != *pairs {
			continue // not printed by every run
		}
		wins := "-"
		if dir := better[name]; dir != "" {
			n := 0
			for i := range p {
				if (dir == "higher" && c[i] > p[i]) || (dir == "lower" && c[i] < p[i]) {
					n++
				}
			}
			wins = fmt.Sprintf("%d/%d (%s is better)", n, *pairs, dir)
		}
		fmt.Printf("%-36s %14.6g %28s %14.6g %28s %s\n", name, quantile(p, 0.5), spread(p), quantile(c, 0.5), spread(c), wins)
	}
	return nil
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

func spread(xs []float64) string {
	return fmt.Sprintf("[%.6g, %.6g]", quantile(xs, 0.25), quantile(xs, 0.75))
}
