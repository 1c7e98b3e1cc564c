// Command benchmark is the repository's end-to-end performance harness: six
// workloads over the three paths an OpenVDAP user sees — a fleet round, a
// libvdap HTTP request and DDI ingest/query — each run in a fresh process,
// each checking its own outputs, with a separate traced pass that explains
// the end-to-end numbers layer by layer. See README.md.
//
//	go run ./benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-repeat R] [-out FILE]
//	go run ./benchmark -check A.json B.json
//	go run ./benchmark -bounds A.json B.json   # print bounds.json
//	go run ./benchmark -manifest               # print BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadDef names one workload and why it exists. A gated workload is
// listed in BENCHMARK.json, so the pipeline runs it and holds later changes
// to its bounds; an ungated one is run by hand, by -repeat and by the tests.
type workloadDef struct {
	Name  string
	Gated bool
	Why   string
	Run   func(*runCtx) (*result, error)
}

var workloads = []workloadDef{
	{"fleet_clean", true, "1000 vehicles, no faults, one shard: the decision phase (TopoOrder, EstimateSite, vcu plan) is ~95% of the work and commit almost none", runFleetClean},
	{"fleet_chaos", true, "same world plus fault plan, resilience ladder, telemetry lanes, flight recorder, sampler and two shards: the layers fleet_clean bypasses", runFleetChaos},
	{"serve_snapshot", true, "vdapd-shaped platform over loopback TCP, gzip-negotiated mix of the four watermark-cached snapshot routes: cache lookup, per-request gzip and body write dominate", runServeSnapshot},
	{"serve_data", true, "same platform, six routes that bypass cache and gzip and take the run lock against the tick loop, writing beside reading through libvdap into the DDI store", runServeData},
	// Not gated: the store publishes segments by rename and truncates its
	// WAL at every seal, which makes ext4 flush the data at once, so on the
	// shared host half of this workload's CPU is kernel block I/O whose cost
	// is the host's, and ops_per_s spreads by 25-60% between runs of one
	// commit (README "Bounds"). It stays a diagnostic workload.
	{"ddi_ingest", false, "DiskStore write path alone: WAL framing, memtable, seal with Huffman encode, compaction and DeleteBefore on a hand-driven cadence, almost no reads", runDDIIngest},
	{"ddi_query", true, "DiskStore read path alone over a reopened read-only store: planner, zone-map pruning, lazy column decode and k-way merge over eight query shapes", runDDIQuery},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx is what a workload gets: the generated-input seed, how long to
// measure, whether this is the traced pass, and where scratch files go.
type runCtx struct {
	seed    int64
	seconds time.Duration
	traced  bool
	sc      scale
	rec     *recorder // nil unless traced
	tmpRoot string    // parent of per-run temp dirs
	outDir  string    // where trace-<workload>.json goes
}

// setUpAgain reports whether a workload that has timed the set-ups in done
// (seconds each) should set up once more: once in a traced run, else the
// scale's SetupReps times, and a cheap set-up up to nine times while all of
// them together took under four seconds, because the median of three
// half-second set-ups still jumps with every host hiccup.
func (c *runCtx) setUpAgain(done []float64) bool {
	n := len(done)
	if n == 0 {
		return true
	}
	if c.traced || c.sc.SetupReps <= 1 {
		return false
	}
	var total float64
	for _, s := range done {
		total += s
	}
	return n < c.sc.SetupReps || n < 9 && total < 4
}

// tempDir makes a scratch directory for this run; the caller removes it.
func (c *runCtx) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(c.tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.tmpRoot, prefix+"-*")
}

// sweepScratch removes every scratch directory under tmpRoot. The caller
// holds the machine lock, so whatever is there belongs to no live run: it is
// what a killed run left behind, or what this run is abandoning.
func (c *runCtx) sweepScratch() {
	entries, err := os.ReadDir(c.tmpRoot)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			os.RemoveAll(filepath.Join(c.tmpRoot, e.Name()))
		}
	}
}

// envBlock describes the machine and the commit a result file was taken on.
type envBlock struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
}

func currentEnv(seed int64, seconds time.Duration, sc scale) envBlock {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envBlock{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GitCommit: commit, Seed: seed, Seconds: seconds.Seconds(), Scale: sc.Name,
	}
}

// resultFile is what -out writes and -check reads.
type resultFile struct {
	Env   envBlock  `json:"env"`
	Runs  []*result `json:"runs"`
	Claim *string   `json:"claim"` // always null: the harness claims no gain
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run in this process (default: all six, each in a child process)")
		seed     = flag.Int64("seed", 42, "seed of every generator stream")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds, 1 with -quick)")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
		quick    = flag.Bool("quick", false, "smoke-test scale: about a second per workload")
		repeat   = flag.Int("repeat", 1, "with no -workload: run each workload this many times, seeds seed..seed+repeat-1")
		out      = flag.String("out", "", "write the runs, with the env block, to this JSON file")
		check    = flag.Bool("check", false, "compare two result files: -check A.json B.json")
		bounds   = flag.Bool("bounds", false, "print bounds.json, -check's pair bounds, as derived from the given baseline result files")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the program's metric tables")
	)
	flag.Parse()

	if *emit {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}
	if *bounds {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -bounds needs the baseline result files")
			return 2
		}
		return runBounds(flag.Args(), os.Stdout)
	}
	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -check needs two result files")
			return 2
		}
		return runCheck(flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	sc := fullScale
	if *quick {
		sc = quickScale
	}
	secs := time.Duration(*seconds * float64(time.Second))
	if secs <= 0 {
		secs = runSeconds * time.Second
		if *quick {
			secs = time.Second
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	isTraced := *trace == 1

	if *workload == "" {
		return runAll(*seed, secs, isTraced, *quick, *repeat, *out, sc)
	}
	wl := findWorkload(*workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have:", *workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr, ")")
		return 2
	}
	ctx := &runCtx{
		seed: *seed, seconds: secs, traced: isTraced, sc: sc,
		tmpRoot: filepath.Join(".bench_build", "tmp"),
		outDir:  filepath.Join("benchmark", "out"),
	}
	res, err := runOne(ctx, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res.printTable(os.Stderr)
	if *out != "" {
		if err := writeResultFile(*out, currentEnv(*seed, secs, sc), []*result{res}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: correctness check failed; no result line printed")
		return 1
	}
	line, err := res.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runOne runs one workload in this process, holding the lock that keeps two
// workloads from sharing the machine (and each other's numbers).
func runOne(ctx *runCtx, wl *workloadDef) (*result, error) {
	unlock, err := lockMachine(ctx.tmpRoot)
	if err != nil {
		return nil, err
	}
	defer unlock()
	ctx.sweepScratch()
	// An interrupted run removes its stores too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			ctx.sweepScratch()
			os.Exit(130)
		}
	}()
	var watch *runtimeWatch
	if ctx.traced {
		ctx.rec = newRecorder()
		watch = startRuntimeWatch()
	}
	res, err := wl.Run(ctx)
	if err != nil {
		if watch != nil {
			watch.finish(map[string]float64{})
		}
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	if !ctx.traced {
		res.E2E["peak_rss_mb"] = peakRSSMB() // VmHWM: this process ran one workload and nothing else
	}
	if res.Attempted > 0 {
		res.Layer["fail_ratio"] += float64(res.Failed) / float64(res.Attempted)
	}
	if watch != nil {
		watch.finish(res.Layer)
	}
	if ctx.traced {
		if err := finishTrace(ctx, wl.Name, res); err != nil {
			return nil, err
		}
	}
	if res.Attempted < 1 {
		res.fail("no op was attempted")
	}
	if res.Failed > 0 {
		res.fail("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// finishTrace writes the span file and the span-accounting metrics.
func finishTrace(ctx *runCtx, name string, res *result) error {
	path := filepath.Join(ctx.outDir, "trace-"+name+".json")
	n, err := ctx.rec.writeChrome(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.note("wrote %d spans to %s", n, path)
	// Self times partition each root span, so they must add up to the
	// traced wall; the share left on the root itself is what no layer span
	// covered (driver loop, span bookkeeping).
	layers := ctx.rec.layers()
	var self, root time.Duration
	for _, lt := range layers {
		self += lt.Self
	}
	for _, l := range ctx.rec.lanes {
		for i := range l.spans {
			if l.spans[i].Parent < 0 {
				root += l.spans[i].End - l.spans[i].Start
			}
		}
	}
	if root > 0 {
		if gap := float64(self-root) / float64(root); gap > 0.05 || gap < -0.05 {
			res.fail("per-layer self times sum to %v, traced wall is %v", self, root)
		}
		res.Layer["trace.unattributed_frac"] = float64(layers["workload"].Self) / float64(root)
	}
	return nil
}

// lockMachine takes an exclusive, non-blocking flock so that two workloads
// never run at once from the same checkout.
func lockMachine(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "benchmark.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("another benchmark workload is running (lock %s); refusing to run two at once", f.Name())
		}
		return nil, err
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// runAll runs every workload, one fresh child process each so that peak RSS
// and allocation counters belong to one workload, and prints a summary.
func runAll(seed int64, secs time.Duration, traced, quick bool, repeat int, out string, sc scale) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if repeat < 1 {
		repeat = 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "runs-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var runs []*result
	failed := false
	for rep := 0; rep < repeat; rep++ {
		for _, wl := range workloads {
			childOut := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", wl.Name, rep))
			args := []string{
				"-workload", wl.Name, "-seed", fmt.Sprint(seed + int64(rep)),
				"-seconds", fmt.Sprint(secs.Seconds()), "-out", childOut,
			}
			if traced {
				args = append(args, "-trace", "1")
			}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			var rf resultFile
			if b, err := os.ReadFile(childOut); err == nil && json.Unmarshal(b, &rf) == nil {
				runs = append(runs, rf.Runs...)
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", wl.Name, runErr)
				failed = true
			}
		}
	}
	env := currentEnv(seed, secs, sc)
	if out != "" {
		if err := writeResultFile(out, env, runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	summary, err := json.MarshalIndent(struct {
		Env       envBlock `json:"env"`
		Workloads int      `json:"workloads"`
		Runs      int      `json:"runs"`
		Correct   bool     `json:"correct"`
		Claim     *string  `json:"claim"`
	}{env, len(workloads), len(runs), !failed, nil}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(summary))
	if failed {
		return 1
	}
	return 0
}

func writeResultFile(path string, env envBlock, runs []*result) error {
	b, err := json.MarshalIndent(resultFile{Env: env, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
