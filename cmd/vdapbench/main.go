// Command vdapbench regenerates every table and figure of the OpenVDAP
// paper's evaluation, plus the design-claim ablations (E4-E8).
//
// Usage:
//
//	vdapbench -exp all
//	vdapbench -exp fig2 -seed 7 -duration 5m
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() { os.Exit(mainExit(os.Args[1:])) }

// options is everything one vdapbench run reads: the flag values, plus the
// -trace sinks run sets up before dispatching.
type options struct {
	exp       string
	seed      int64
	duration  time.Duration
	dir       string
	traceOut  string
	reps      int
	parallel  int
	runReport string
	shards    int
	vehicles  string
	records   int

	// With -trace, instrument-aware experiments report spans and metrics
	// here (zero otherwise); virtual-time determinism makes the file
	// byte-identical per seed.
	sink obs.Scope
}

// mainExit is main's body, returning the exit code instead of calling
// os.Exit so the profile defers run on failure too: a failing -exp is
// exactly when the -cpuprofile is wanted whole.
func mainExit(args []string) int {
	var (
		o          options
		cpuProfile string
		memProfile string
	)
	fs := flag.NewFlagSet("vdapbench", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+expNames())
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.DurationVar(&o.duration, "duration", 5*time.Minute, "figure-2 stream duration")
	fs.StringVar(&o.dir, "dir", "", "DDI scratch directory (default: temp; -exp ddi needs it empty)")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace_event JSON file (spans from -exp arch, sweep and chaos)")
	fs.IntVar(&o.reps, "reps", 8, "replications for -exp sweep/chaos/obs")
	fs.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "worker-pool size for -exp sweep/chaos/obs (output is byte-identical at any level)")
	fs.StringVar(&o.runReport, "runreport", "", "output path for the -exp obs RUN_REPORT.json (empty: stdout tables only)")
	fs.IntVar(&o.shards, "shards", 0, "shard count for -exp scale (0 = sweep 1,2,4,8) and -exp obs (0 = default; simulation output is identical for every value)")
	fs.StringVar(&o.vehicles, "vehicles", "", "-exp scale comma-separated fleet sizes (default 100,1000,10000)")
	fs.IntVar(&o.records, "records", 10_000_000, "-exp ddi corpus size")
	fs.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&memProfile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		// Parse has already printed the error and the usage.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "vdapbench:", err)
		return 1
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(o); err != nil {
		return fail(err)
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	return 0
}

// experiment is one -exp value. The table below is the only list of them:
// the flag usage line, the -exp all order, the unknown-experiment listing
// and the dispatch all walk it.
type experiment struct {
	name string
	// label is the experiment's heading in EXPERIMENTS.md and its golden
	// file's prefix: E1 … E20, E7b, E7c.
	label string
	desc  string
	// all marks experiments included in -exp all. The determinism digests
	// sized by fleet or corpus (scale, ddi: minutes at their defaults),
	// file-writing runs (obs) and the netchaos plan dump stay out.
	all bool
	run func(o *options) error
}

var experimentList = []experiment{
	{"table1", "E1", "Table I: algorithm latency on a 2.4 GHz vCPU", true, func(*options) error {
		return show(experiments.Table1Table)(experiments.RunTable1())
	}},
	{"fig2", "E2", "Figure 2: packet and frame loss of live video over LTE", true, func(o *options) error {
		return show(experiments.Figure2Table)(experiments.RunFigure2(o.seed, o.duration))
	}},
	{"fig3", "E3", "Figure 3: Inception-v3 on five processors", true, func(*options) error {
		return show(experiments.Figure3Table)(experiments.RunFigure3())
	}},
	{"dsf", "E4", "DSF scheduling-policy ablation", true, func(*options) error {
		return show(experiments.DSFTable)(experiments.RunDSFAblation(8))
	}},
	{"elastic", "E5", "elastic-management pipeline selection", true, func(*options) error {
		return show(experiments.ElasticTable)(experiments.RunElastic())
	}},
	{"arch", "E6", "onboard vs. edge vs. cloud architecture comparison", true, runArch},
	{"compress", "E7", "Deep Compression size/accuracy sweep", true, func(o *options) error {
		return show(experiments.CompressTable)(experiments.RunCompressionSweep(o.seed))
	}},
	{"retrain", "E7c", "pruning with vs. without retraining", true, func(o *options) error {
		return show(experiments.RetrainTable)(experiments.RunCompressionRetrain(o.seed))
	}},
	{"pbeam", "E7b", "pBEAM driving-behavior pipeline", true, func(o *options) error {
		return show(experiments.PBEAMTable)(experiments.RunPBEAMPipeline(o.seed, 3))
	}},
	{"collab", "E9", "multi-vehicle convoy collaboration", true, func(*options) error {
		return show(experiments.CollabTable)(experiments.RunCollaboration())
	}},
	{"commute", "E11", "destination choice along a commute", true, func(*options) error {
		return show(experiments.CommuteTable)(experiments.RunCommute())
	}},
	{"fleet", "E12", "fleet contention on one shared RSU", true, func(*options) error {
		return show(experiments.FleetTable)(experiments.RunFleetContention())
	}},
	{"sweep", "E13", "replicated fleet sweep with merged telemetry", true, func(o *options) error {
		return showMerged(o, "replications", experiments.FleetSweepTable)(experiments.RunFleetSweep(o.replicated()))
	}},
	{"chaos", "E14", "fault-injection sweep, resilience off vs. on", true, func(o *options) error {
		return showMerged(o, "cells", experiments.ChaosTable)(experiments.RunChaosSweep(o.replicated()))
	}},
	{"hdmap", "E10", "HD-map prefetch along the route", true, func(*options) error {
		return show(experiments.HDMapTable)(experiments.RunHDMapPrefetch())
	}},
	{"ddicache", "E8", "DDI two-tier cache latency", true, func(o *options) error {
		return withScratchDir(o.dir, "vdapbench-ddi-*", func(dir string) error {
			return show(experiments.DDITable)(experiments.RunDDIBench(dir, o.seed))
		})
	}},
	{"scale", "E16", "fleet scaling digest, byte-identical at any -shards", false, runScale},
	{"obs", "E17", "flight-recorder fleet run -> RUN_REPORT.json", false, runObs},
	{"netchaos", "E19", "compiled network-chaos plan, byte-identical at any -parallel", false, runNetChaos},
	{"ddi", "E20", "columnar DDI store query digest, byte-identical at any -parallel", false, runDDIStore},
}

// expNames renders the one-line flag usage: all|table1|...|ddi.
func expNames() string {
	names := make([]string, 0, len(experimentList)+1)
	names = append(names, "all")
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	return strings.Join(names, "|")
}

// expUsage renders the full experiment listing for unknown -exp errors.
func expUsage() string {
	var b strings.Builder
	b.WriteString("experiments:\n")
	fmt.Fprintf(&b, "  %-10s %-4s %s\n", "all", "", "every paper experiment below (the determinism digests scale, obs, netchaos and ddi run by name only)")
	for _, e := range experimentList {
		fmt.Fprintf(&b, "  %-10s %-4s %s\n", e.name, e.label, e.desc)
	}
	return b.String()
}

// run dispatches o.exp over experimentList, then writes the -trace file.
func run(o options) error {
	if o.traceOut != "" {
		o.sink = obs.Scope{Metrics: telemetry.NewRegistry(), Tracer: trace.New()}
	}
	all := o.exp == "all"
	var selected []experiment
	for _, e := range experimentList {
		if all && e.all || e.name == o.exp {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q\n%s", o.exp, expUsage())
	}
	if o.shards < 0 {
		return fmt.Errorf("bad -shards %d", o.shards)
	}
	for _, e := range selected {
		if err := e.run(&o); err != nil {
			if all {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			return err
		}
	}
	if o.traceOut != "" {
		out, err := o.sink.Tracer.ChromeTrace()
		if err != nil {
			return fmt.Errorf("render trace: %w", err)
		}
		if err := os.WriteFile(o.traceOut, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vdapbench: wrote %d spans over components %v to %s\n",
			o.sink.Tracer.SpanCount(), o.sink.Tracer.Components(), o.traceOut)
	}
	return nil
}

// show prints one experiment's table, passing a runner error through, so
// a compute-rows-print-table experiment is one line:
// show(experiments.Table1Table)(experiments.RunTable1()).
func show[R any](table func(R) *experiments.Table) func(R, error) error {
	return func(rows R, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(table(rows))
		return nil
	}
}

// withScratchDir runs f in dir, or in a fresh temp directory (removed
// afterwards) when dir is empty.
func withScratchDir(dir, pattern string, f func(dir string) error) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", pattern)
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	return f(dir)
}

// writeReport writes one experiment's JSON report file and says so on
// stderr.
func writeReport(path, schema string, marshal func() ([]byte, error)) error {
	out, err := marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "vdapbench: wrote %s (%s)\n", path, schema)
	return nil
}

// showMerged is show for a replicated sweep: it prints the table, then the
// sweep's merged telemetry, which it also folds into the -trace sink.
func showMerged[R any](o *options, unit string, table func(*runner.Report[R]) *experiments.Table) func(*runner.Report[R], error) error {
	return func(res *runner.Report[R], err error) error {
		if err != nil {
			return err
		}
		fmt.Println(table(res))
		fmt.Printf("merged telemetry (%d %s, %d spans):\n", len(res.Results), unit, res.Obs.Tracer.SpanCount())
		fmt.Print(res.Obs.Metrics.Render())
		o.sink.Merge(res.Obs)
		return nil
	}
}

// parseFleetSizes turns the -vehicles flag into a fleet-size list; an
// empty flag defers to the experiment's defaults.
func parseFleetSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -vehicles entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func runArch(o *options) error {
	if o.traceOut == "" {
		return show(experiments.ArchTable)(experiments.RunArchComparison())
	}
	return withScratchDir("", "vdapbench-arch-ddi-*", func(ddiDir string) error {
		return show(experiments.ArchTable)(experiments.RunArchComparisonTraced(o.sink, ddiDir))
	})
}

// replicated is the runner configuration -reps, -parallel and -seed ask for.
func (o *options) replicated() runner.Config {
	return runner.Config{Replications: o.reps, Parallel: o.parallel, Seed: o.seed}
}

// runScale is E16: the deterministic simulation table `make determinism`
// diffs between -shards values. Its default sweep reaches 10 000 vehicles,
// so it stays out of -exp all.
func runScale(o *options) error {
	sizes, err := parseFleetSizes(o.vehicles)
	if err != nil {
		return err
	}
	cfg := experiments.ScaleConfig{Vehicles: sizes, Seed: o.seed}
	if o.shards > 0 {
		cfg.Shards = []int{o.shards}
	}
	return show(experiments.ScaleTable)(experiments.RunScale(cfg))
}

// runObs is E17: a faulted fleet run with the observability stack on.
// Stdout carries only deterministic output (health table, event log,
// series summary) so `make determinism` can diff it across -shards
// and -parallel values; -runreport writes the same data as JSON.
func runObs(o *options) error {
	res, err := experiments.RunObs(experiments.ObsConfig{Config: o.replicated(), Shards: o.shards})
	if err != nil {
		return err
	}
	fmt.Println(experiments.ObsTable(res))
	fmt.Printf("flight recorder (%d events, %d fault transitions planned):\n",
		res.Obs.Events.Len(), res.FaultEvents)
	fmt.Print(res.Obs.Events.RenderTable())
	fmt.Println("sampled series:")
	fmt.Print(res.Obs.Series.Render())
	if o.runReport == "" {
		return nil
	}
	return writeReport(o.runReport, experiments.RunReportSchema, experiments.BuildRunReport(res).Marshal)
}

// runNetChaos is E19's deterministic half: the compiled network-chaos
// plan, byte-identical at every -parallel level — `make determinism` diffs
// this output across worker counts. The traffic half is a test
// (core.TestChaosPairResilienceBeatsRaw).
func runNetChaos(o *options) error {
	plan, err := experiments.CompileChaosPlan(o.seed, o.parallel)
	if err != nil {
		return err
	}
	fmt.Print(plan.Describe())
	return nil
}

// runDDIStore is E20: the columnar store digest `make determinism` diffs
// between -parallel levels. Its default corpus is 10M records, so like
// scale it stays out of -exp all.
func runDDIStore(o *options) error {
	return withScratchDir(o.dir, "vdapbench-ddistore-*", func(dir string) error {
		res, err := experiments.RunDDIStore(experiments.DDIStoreConfig{
			Records:  o.records,
			Seed:     o.seed,
			Parallel: o.parallel,
			Dir:      dir,
		})
		if err != nil {
			return err
		}
		fmt.Println(experiments.DDIStoreTable(res))
		return nil
	})
}
