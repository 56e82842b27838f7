package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/artifact"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json
// records why each exists; the run functions' comments say what they
// exercise.
type workload struct {
	name string
	// run measures the workload in this process.
	run func(e *env) (*measured, error)
	// group names the in-situ per-layer metrics the workload's traced
	// run measures (see layerGroups).
	group string
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []*workload{
	{name: "verify-budget", group: "check", run: runVerifyBudget},
	{name: "verify-reduced", group: "check", run: runVerifyReduced},
	{name: "measure-progress", group: "check", run: runMeasureProgress},
	{name: "soak-durable", group: "campaign", run: runSoakDurable},
	{name: "farm", group: "service", run: runFarm},
	{name: "lint", group: "analysis", run: runLint},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what one workload run needs.
type env struct {
	seed    int64
	seconds float64
	workers int
	size    *size
	root    string  // repository root (holds go.mod)
	tmp     string  // scratch directory of this run, inside the checkout
	tr      *tracer // nil for the untraced run
	orc     *oracle // known answers and their tally
	exe     string  // this binary, for soak passes in their own process ("" = in this process)
	cal     calibration
	log     func(format string, args ...any)
	// setupOnly ends the run once the workload is set up (errSetupOnly):
	// the parent times whole processes that do only that (setup_s).
	setupOnly bool
	// helper marks a traced run that measures its workload's layer group
	// for another workload's traced run (see completeLayers).
	helper bool
}

func (e *env) traced() bool { return e.tr != nil }

// measured is what a workload run reports before metrics are derived.
type measured struct {
	// wall and cpu are the untraced verdicts: wall-clock and CPU seconds
	// from the start of a check to its verdict.
	wall, cpu []float64
	// tracedWall are the verdicts measured with the timing wrappers on
	// (traced runs only).
	tracedWall []float64
	// work counts units of work per untraced verdict (schedules, runs,
	// jobs, packages) and names the unit, for the human summary.
	work     float64
	workUnit string
	// layers are the in-situ per-layer metrics (traced runs only).
	layers map[string]float64
	// probeMeta is the system the direct sim and artifact probes build.
	probeMeta artifact.Meta
	// reconcile is the traced run's per-run cost breakdown (explorer
	// workloads only).
	reconcile map[string]float64
	// tracedLayers says the workload's in-situ layer metrics come from its
	// warm-up and traced passes alone, so a helper run, which reports only
	// those, skips the untraced pass.
	tracedLayers bool
}

// size holds every workload's input sizes: full for benchmark runs,
// tiny for the smoke test.
type size struct {
	// probeTime is how long each repeated-call layer probe loops.
	probeTime time.Duration

	budgetMeta      artifact.Meta // verify-budget, and verify-reduced's second leg
	budget          int
	budgetSchedules int // known answer for budgetMeta at budget
	budgetReduced1  int // known reduced count at one worker
	reducedMeta     artifact.Meta
	reducedAll1     int // known reduced ExploreAll count at one worker

	waitFreeReplays int
	lockedReplays   int

	soakRuns int64

	farmBlocks   int // least number of job blocks (one job of each kind per block)
	lintPatterns []string
	lintEdit     string // the file the incremental lint run edits
	lintMisses   int    // known count of package dirs the edit makes the incremental run re-analyze
}

var fullSize = &size{
	probeTime: 150 * time.Millisecond,

	budgetMeta: artifact.Meta{Workload: "unicons", N: 4, V: 1, Quantum: 8}, budget: 4,
	budgetSchedules: 192867, budgetReduced1: 85990,
	reducedMeta: artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 0}, reducedAll1: 47741,

	waitFreeReplays: 100000, lockedReplays: 10000,

	soakRuns: 5000,

	farmBlocks: 4,

	lintPatterns: []string{"./..."}, lintEdit: "internal/valency/valency.go", lintMisses: 2,
}

var tinySize = &size{
	probeTime: 10 * time.Millisecond,

	budgetMeta: artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 8}, budget: 2,
	budgetSchedules: 335, budgetReduced1: 335,
	reducedMeta: artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 0}, reducedAll1: 171,

	waitFreeReplays: 2000, lockedReplays: 300,

	soakRuns: 100,

	farmBlocks: 2, // a traced run needs an untraced block and a traced one

	lintPatterns: []string{"./internal/mem"}, lintEdit: "internal/mem/mem.go", lintMisses: 1,
}

// verdict is what one timed pass reports: the units of work it did
// and, when the pass's verdict is only part of it, that part's wall and
// CPU seconds (zero = the whole pass).
type verdict struct {
	work, wall, cpu float64
}

// passes runs one warm-up pass, then timed passes until the run's
// seconds are spent and at least one untraced pass ran, unless the run
// is a helper whose layer metrics need none (tracedLayers). A traced run
// alternates untraced and traced passes, so the tracing overhead is
// measured under the same conditions as the figures it qualifies.
func (e *env) passes(m *measured, name string, pass func(traced bool, parent int64) (verdict, error)) error {
	if _, err := pass(false, 0); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	tracedOnly := e.helper && m.tracedLayers
	start := time.Now()
	for i := 0; (len(m.wall) == 0 && !tracedOnly) || (e.traced() && len(m.tracedWall) == 0) ||
		time.Since(start).Seconds() < e.seconds; i++ {
		// Each pass starts from a collected heap and a synced filesystem,
		// so the garbage and the dirty or deleted files of earlier passes
		// do not tax it.
		settle()
		traced := e.traced() && (i%2 == 1 || tracedOnly)
		id := e.tr.id()
		c0, t0 := cpuSeconds(), now()
		v, err := pass(traced, id)
		t1, c1 := now(), cpuSeconds()
		if err != nil {
			return err
		}
		e.tr.add(id, name, "pass", 0, 0, t0, t1, map[string]any{"traced": traced, "work": v.work})
		if v.wall == 0 {
			v.wall, v.cpu = float64(t1-t0)/1e9, c1-c0
		}
		if traced {
			m.tracedWall = append(m.tracedWall, v.wall)
			continue
		}
		m.wall = append(m.wall, v.wall)
		m.cpu = append(m.cpu, v.cpu)
		m.work = v.work
	}
	return nil
}

// errSetupOnly ends a set-up-only run once the workload is set up.
var errSetupOnly = errors.New("set-up only")

// setUp runs the workload's set-up, fn, which returns its teardown (may
// be nil). A set-up-only run ends here with errSetupOnly and leaves the
// teardown to the process's exit and the removal of its scratch
// directory.
func (e *env) setUp(fn func() (func(), error)) (func(), error) {
	teardown, err := fn()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if e.setupOnly {
		return nil, errSetupOnly
	}
	if teardown == nil {
		teardown = func() {}
	}
	return teardown, nil
}

// settle collects the heap and flushes the filesystem. Repeated copies
// and deletions on ext4 slow each later one down (a 17 ms module copy
// grows past 100 ms within a few dozen repetitions) unless the dirty
// data is written out in between.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// cpuSeconds is the user plus system CPU time of this process and of
// its finished children (the go command the lint driver runs).
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0
		}
		total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// mkTemp makes a fresh directory under the run's scratch directory.
func (e *env) mkTemp(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern)
}

// workers is the worker count every workload uses: one per CPU.
func workers() int { return runtime.NumCPU() }
