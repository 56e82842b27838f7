// Command benchmark measures the checker end to end and layer by layer.
// It builds with its own go.mod next to the repository's; run it from
// the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload verify-budget --seed 1 --seconds 8 --trace 0
//	bash benchmark/run.sh --seed 1 --out results.json
//	bash benchmark/run.sh --workload farm --seed 1 --trace 1 --trace-file farm-trace.json
//	bash benchmark/run.sh --compare 'base-*.json' 'change-*.json'
//
// Each workload runs in a fresh child process of this binary, so its
// peak RSS is its own. Every verdict is checked against a known answer;
// a mismatch makes the run incorrect and the exit status 1. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// buildDir holds, relative to the repository root, everything a run
// leaves behind: run.sh's build cache and binary, scratch directories and
// default trace files.
const buildDir = "benchmark/.build"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run: what the child reports and the result
// file records.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Verdicts are the untraced verdict times the medians come from.
	Verdicts  []float64          `json:"verdicts,omitempty"`
	Work      float64            `json:"work_per_verdict,omitempty"`
	WorkUnit  string             `json:"work_unit,omitempty"`
	Reconcile map[string]float64 `json:"reconcile,omitempty"`
	// TraceFile is where a traced run wrote its Chrome trace.
	TraceFile string `json:"trace_file,omitempty"`
	Error     string `json:"error,omitempty"`
}

// resultFile is what --out writes.
type resultFile struct {
	Env  envBlock    `json:"env"`
	Runs []runResult `json:"runs"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (empty = every workload)")
		seed      = flag.Int64("seed", 1, "seed the workload inputs derive from")
		seconds   = flag.Float64("seconds", 8, "seconds of timed passes per workload")
		trace     = flag.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
		traceFile = flag.String("trace-file", "", "Chrome trace-event output of a traced run (default "+buildDir+"/trace-<workload>-<seed>.json)")
		out       = flag.String("out", "", "also write the results, with the environment block, to this JSON file")
		compare   = flag.Bool("compare", false, "compare two sets of result files: --compare 'base-*.json' 'change-*.json'")
		child     = flag.Bool("child", false, "run one workload in this process (internal: the parent spawns children)")
		helper    = flag.Bool("helper", false, "with --child --trace 1: measure only the workload's own layer group, for another workload's traced run (internal)")
		setupOnly = flag.Bool("setup-only", false, "with --child: set the workload up and exit (internal: the parent times these processes)")
		soak      = flag.String("soak-pass", "", "run one soak campaign given as JSON and print its outcome (internal)")
	)
	flag.Parse()
	if *soak != "" {
		var s soakSpec
		if err := json.Unmarshal([]byte(*soak), &s); err != nil {
			fatalf("--soak-pass: %v", err)
		}
		data, err := json.Marshal(soakPass(s))
		if err != nil {
			fatalf("encode soak outcome: %v", err)
		}
		fmt.Println(string(data))
		return
	}
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	root, err := repoRoot()
	if err != nil {
		fatalf("%v", err)
	}
	if *name != "" && workloadByName(*name) == nil {
		fatalf("unknown workload %q", *name)
	}
	if *child {
		res := runChild(root, *name, *trace == 1, *traceFile,
			env{seed: *seed, seconds: *seconds, helper: *helper, setupOnly: *setupOnly})
		data, err := json.Marshal(res)
		if err != nil {
			fatalf("encode child result: %v", err)
		}
		fmt.Println(string(data))
		return
	}
	os.Exit(runParent(root, *name, *seed, *seconds, *trace, *traceFile, *out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// repoRoot is the working directory, which must be the repository root.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, p := range []string{"go.mod", "internal/check", "internal/service"} {
		if _, err := os.Stat(filepath.Join(wd, p)); err != nil {
			return "", fmt.Errorf("run from the repository root: %s not found in %s", p, wd)
		}
	}
	return wd, nil
}

// runParent runs each selected workload in a child process, prints
// every metric, and prints the result line last.
func runParent(root, name string, seed int64, seconds float64, trace int, traceFile, out string) int {
	selected := workloads
	if name != "" {
		selected = []*workload{workloadByName(name)}
	}
	envb := newEnvBlock(root, seed)
	var runs []runResult
	for _, w := range selected {
		file := traceFile
		if file == "" || len(selected) > 1 {
			file = filepath.Join(root, buildDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
		}
		runs = append(runs, spawn(w.name, seed, seconds, trace, false, file))
	}
	if trace == 1 {
		completeLayers(runs, func(owner string) runResult {
			file := filepath.Join(root, buildDir, fmt.Sprintf("trace-%s-%d.json", owner, seed))
			return spawn(owner, seed, 0, 1, true, file)
		})
	}
	envb.finish()
	for _, f := range envb.Flags {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %s\n", f)
	}
	if out != "" {
		data, err := json.MarshalIndent(resultFile{Env: envb, Runs: runs}, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write %s: %v\n", out, err)
		}
	}

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range runs {
		printRun(r)
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(runs) > 1 {
				k = r.Workload + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	data, err := json.Marshal(final)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(data))
	if !final.Correct {
		return 1
	}
	return 0
}

// setupProcs is how many set-up-only processes an untraced run times;
// setup_s is the median of their wall times.
const setupProcs = 21

// spawn runs one workload in a fresh child process. To an untraced
// run's metrics it adds the child's peak RSS and setup_s: the median
// wall time of setupProcs fresh processes that each start, set the
// workload up and exit, which is what a user of the checker pays before
// a first verdict, package initialisation included.
func spawn(name string, seed int64, seconds float64, trace int, helper bool, traceFile string) runResult {
	var setup []float64
	if trace == 0 {
		for i := 0; i < setupProcs; i++ {
			// The previous process's deletions are flushed first, so they do
			// not tax this one.
			syscall.Sync()
			t0 := now()
			res, _, err := runChildProcess(name, seed, "--setup-only")
			setup = append(setup, float64(now()-t0)/1e9)
			if err == nil && !res.Correct {
				err = fmt.Errorf("%s", strings.Join(res.Failures, "; "))
			}
			if err != nil {
				return failedRun(name, seed, false, fmt.Errorf("set-up process: %v", err))
			}
		}
	}
	res, ps, err := runChildProcess(name, seed, "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace),
		"--trace-file", traceFile, fmt.Sprintf("--helper=%v", helper))
	if err != nil {
		return failedRun(name, seed, trace == 1, err)
	}
	if trace == 0 && res.Error == "" {
		ru, ok := ps.SysUsage().(*syscall.Rusage)
		if !ok || ru.Maxrss <= 0 {
			return failedRun(name, seed, false, errors.New("child peak RSS unavailable"))
		}
		res.Metrics["peak_rss_mb"] = metric{Value: float64(ru.Maxrss) / 1024, Unit: "MiB"}
		res.Metrics["setup_s"] = metric{Value: median(setup), Unit: "s"}
	}
	return res
}

// runChildProcess runs this binary on one workload with --child and the
// given flags, and decodes the result line it prints. An error is a
// child that printed no result, or failed without reporting why.
func runChildProcess(name string, seed int64, args ...string) (runResult, *os.ProcessState, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, nil, err
	}
	cmd := exec.Command(exe, append([]string{"--child", "--workload", name, "--seed", fmt.Sprint(seed)}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	var res runResult
	if jerr := json.Unmarshal(lastLine(stdout.Bytes()), &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return res, nil, fmt.Errorf("child: %v", err)
	}
	if err != nil && res.Correct {
		return res, nil, fmt.Errorf("child: %v", err)
	}
	return res, cmd.ProcessState, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

func failedRun(name string, seed int64, trace bool, err error) runResult {
	return runResult{Workload: name, Seed: seed, Trace: trace, Attempted: 1, Failed: 1,
		Failures: []string{err.Error()}, Error: err.Error(), Metrics: map[string]metric{}}
}

// printRun prints one run's metrics by name with their units.
func printRun(r runResult) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-16s %-30s %14.6g %s\n", r.Workload, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	if len(r.Verdicts) > 0 {
		fmt.Fprintf(w, "%-16s median of %d verdicts; %.0f %s per verdict\n",
			r.Workload, len(r.Verdicts), r.Work, r.WorkUnit)
	}
	fmt.Fprintf(w, "%-16s correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", r.Workload, f)
	}
}

// runChild measures one workload in this process, in a scratch
// directory under buildDir/tmp. e holds the run's settings; runChild
// fills in the rest.
func runChild(root, name string, traced bool, traceFile string, e env) runResult {
	tmp := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return failedRun(name, e.seed, traced, err)
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return failedRun(name, e.seed, traced, err)
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return failedRun(name, e.seed, traced, err)
	}
	e.workers, e.size, e.root, e.tmp, e.orc, e.exe = workers(), fullSize, root, dir, newOracle(), exe
	e.log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, fmt.Sprintf(format, args...))
	}
	return e.measure(workloadByName(name), traced, traceFile)
}

// measure runs one workload and derives its metrics: the end-to-end
// ones (peak RSS and setup_s aside, which the parent measures on child
// processes), or for a traced run the per-layer ones it measures (see
// fillLayers), with the trace written to traceFile.
func (e *env) measure(w *workload, traced bool, traceFile string) runResult {
	res := runResult{Workload: w.name, Seed: e.seed, Trace: traced, Metrics: map[string]metric{}}
	if traced {
		e.tr = &tracer{}
		e.cal = calibrate()
	}
	m, err := w.run(e)
	if errors.Is(err, errSetupOnly) {
		res.Correct = true
		return res
	}
	if err == nil && traced {
		err = e.fillLayers(w, m, &res)
		if err == nil {
			err = e.tr.write(traceFile, w.name, map[string]any{"seed": e.seed, "reconcile": m.reconcile})
			res.TraceFile = traceFile
			e.log("trace written to %s", traceFile)
		}
	}
	if err != nil {
		e.orc.check(w.name, err)
		res.Error = err.Error()
	}
	if err == nil && !traced {
		res.Metrics["verdict_s"] = metric{Value: median(m.wall), Unit: "s"}
		res.Metrics["verdict_cpu_s"] = metric{Value: median(m.cpu), Unit: "s"}
	}
	if m != nil {
		res.Verdicts, res.Work, res.WorkUnit = m.wall, m.work, m.workUnit
		res.Reconcile = m.reconcile
	}
	res.Attempted, res.Failed = e.orc.attempted, e.orc.failed()
	res.Failures = e.orc.failures
	res.Correct = res.Failed == 0
	return res
}

// fillLayers sets the per-layer metrics a traced run measures itself:
// the in-situ metrics of its workload's own group and, unless it is a
// helper measuring that group for another workload's traced run, the
// direct probes with the workload's inputs and the tracing overhead. The
// parent adds the other groups from their owners (completeLayers).
func (e *env) fillLayers(w *workload, m *measured, res *runResult) error {
	vals := map[string]float64{}
	for k, v := range m.layers {
		vals[k] = v
	}
	if !e.helper {
		bundles := defaultBundle(m.probeMeta)
		if w.name == "soak-durable" {
			bundles = soakBundles(e.seed)
		}
		probes, err := e.probeLayers(m.probeMeta, bundles)
		if err != nil {
			return err
		}
		for k, v := range probes {
			vals[k] = v
		}
		vals["trace.overhead"] = median(m.tracedWall)/median(m.wall) - 1
		e.log("tracing overhead: traced verdict %.4fs vs untraced %.4fs (%+.1f%%)",
			median(m.tracedWall), median(m.wall), 100*vals["trace.overhead"])
	}
	for _, d := range perLayer {
		if v, ok := vals[d.name]; ok && (!e.helper || d.group == w.group) {
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	if r := m.reconcile; r != nil {
		e.log("reconcile: untraced %.0f ns/run = sim %.0f + sched %.0f + verify %.0f + driver %.0f (residual); traced %.0f ns/run, driver gaps seen by the wrappers %.0f ns/run",
			r["untraced_ns_per_run"], r["sim_ns_per_run"], r["sched_ns_per_run"], r["verify_ns_per_run"],
			r["driver_residual_ns"], r["traced_ns_per_run"], r["driver_observed_ns"])
	}
	return nil
}

// envBlock records where and how a run was measured.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
	Seed       int64  `json:"seed"`
	StateFS    string `json:"state_fs"`
	LoadBefore string `json:"loadavg_before"`
	LoadAfter  string `json:"loadavg_after"`
	// CPURefBefore and CPURefAfter are the machine's speed on a fixed
	// CPU-bound reference loop (SHA-256, one goroutine per CPU), in
	// MB/s. On a shared host they drift by tens of percent within
	// minutes; they show how fast the machine was during the run.
	CPURefBefore float64  `json:"cpu_ref_mb_s_before"`
	CPURefAfter  float64  `json:"cpu_ref_mb_s_after"`
	Flags        []string `json:"flags,omitempty"`
}

func newEnvBlock(root string, seed int64) envBlock {
	b := envBlock{
		NProc:        runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitHead:      gitHead(root),
		Seed:         seed,
		StateFS:      fsType(filepath.Join(root, buildDir)),
		LoadBefore:   loadavg(),
		CPURefBefore: cpuRef(),
	}
	if b.GoMaxProcs < b.NProc {
		b.Flags = append(b.Flags, fmt.Sprintf("GOMAXPROCS %d is below nproc %d", b.GoMaxProcs, b.NProc))
	}
	var load1 float64
	if _, err := fmt.Sscan(b.LoadBefore, &load1); err == nil && load1 > float64(b.NProc) {
		b.Flags = append(b.Flags, fmt.Sprintf("1-minute load %.2f at start is above nproc %d", load1, b.NProc))
	}
	return b
}

func (b *envBlock) finish() {
	b.LoadAfter = loadavg()
	b.CPURefAfter = cpuRef()
}

// cpuRef hashes a fixed buffer on every CPU for about 100ms and returns
// the throughput in MB/s.
func cpuRef() float64 {
	buf := make([]byte, 1<<16)
	const rounds = 400
	t0 := now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sha256.Sum256(buf)
			}
		}()
	}
	wg.Wait()
	secs := float64(now()-t0) / 1e9
	return float64(runtime.NumCPU()*rounds*len(buf)) / secs / 1e6
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// gitHead resolves the checkout's HEAD commit without running git.
func gitHead(root string) string {
	data, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(data))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// fsType is the filesystem type /proc/mounts gives for path's mount.
func fsType(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	if p, err := filepath.Abs(path); err == nil {
		path = p
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}
