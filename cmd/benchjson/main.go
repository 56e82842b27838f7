// Command benchjson measures explorer and shrinker throughput and
// appends a machine-readable JSON data point to the repo's bench
// trajectory (`make bench-json` → BENCH_explore.json). The file is a
// bench.History — {"latest": ..., "history": [...]} — so the newest
// report always sits at a stable key while past runs accumulate. The
// format is documented in EXPERIMENTS.md ("Bench trajectory").
//
// Usage:
//
//	benchjson                       # writes BENCH_explore.json
//	benchjson -o out.json
//	benchjson -parallel 4           # worker count for the parallel leg
//	benchjson -gate                 # regression gate: compare a fresh
//	                                # run against the committed baseline
//	                                # and exit 1 on a >25% throughput drop
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/durable"
)

// report is the BENCH_explore.json schema, version 4 (version 2 added
// the reduction comparison; version 3 added steal counts and
// allocs-per-schedule to the explore legs, the reduced-mode cost
// ratio, and renamed the misleading sleep_pruned_runs stat to
// sleep_deadlock_runs; version 4 added gomaxprocs, the speedup_note
// degenerate-parallelism flag, and the progress section — the
// practically-wait-free measurement pair).
type report struct {
	Version   int    `json:"version"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go"`
	CPUs      int    `json:"cpus"`
	// GoMaxProcs is runtime.GOMAXPROCS at measurement time (schema v4).
	// It can sit below cpus — cgroup limits, GOMAXPROCS env — in which
	// case the parallel leg never had cpus workers and the speedup
	// figure must be read against this, not cpus.
	GoMaxProcs int              `json:"gomaxprocs"`
	Sequential bench.Throughput `json:"explore_sequential"`
	Parallel   bench.Throughput `json:"explore_parallel"`
	Speedup    float64          `json:"speedup"`
	// SpeedupNote flags a degenerate speedup figure (schema v4): when
	// the parallel leg ran with one worker or on one schedulable CPU,
	// speedup ~1.0 is expected and says nothing about the explorer.
	SpeedupNote string                 `json:"speedup_note,omitempty"`
	Reduction   bench.ReductionBench   `json:"reduction"`
	Shrink      bench.ShrinkThroughput `json:"shrink"`
	// Progress is the measured wait-free vs lock-based progress
	// distribution pair (schema v4). Deterministic given its seeded
	// model and replay count, so the committed value is reproducible on
	// any machine.
	Progress *bench.ProgressBench `json:"progress,omitempty"`
}

func main() {
	var (
		out      = flag.String("o", "BENCH_explore.json", "output path")
		parallel = flag.Int("parallel", 0, "workers for the parallel leg (0 = all CPUs)")
		budget   = flag.Int("shrink-budget", 0, "shrink candidate budget (0 = internal/minimize default)")
		gate     = flag.Bool("gate", false, "regression gate: run the plain and reduced explore legs, compare against -baseline, exit 1 on a drop larger than -gate-drop")
		baseline = flag.String("baseline", "BENCH_explore.json", "committed baseline for -gate")
		gateDrop = flag.Float64("gate-drop", 0.25, "max tolerated fractional throughput drop for -gate")
		model    = flag.String("model", "", "scheduler model for the progress measurement pair (\"\" = bench default)")
		replays  = flag.Int("replays", 2000, "replay count for the progress measurement pair")
	)
	flag.Parse()

	if *gate {
		runGate(*baseline, *gateDrop)
		return
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	seq, err := bench.ExploreThroughput(1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: sequential: %d schedules in %.2fs (%.0f/sec, %.2f allocs/schedule)\n",
		seq.Schedules, seq.Seconds, seq.PerSec, seq.AllocsPerSchedule)
	par, err := bench.ExploreThroughput(workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: parallel(%d): %d schedules in %.2fs (%.0f/sec, %.2fx, %d steals)\n",
		workers, par.Schedules, par.Seconds, par.PerSec, par.PerSec/seq.PerSec, par.Steals)
	red, err := bench.MeasureReduction(workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: reduction(%s): %d -> %d schedules (%.1fx fewer), %d runs incl. pruned, %.0f/sec reduced (%.2fx plain per-run cost)\n",
		red.Mode, red.PlainSchedules, red.ReducedSchedules, red.Ratio, red.ReducedRuns, red.ReducedPerSec, red.CostRatio)
	shr, err := bench.MeasureShrink(*budget)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: shrink: %d candidate replays in %.2fs (%.0f/sec), %d -> %d decisions\n",
		shr.Candidates, shr.Seconds, shr.PerSec, shr.FromDecisions, shr.ToDecisions)
	prog, err := bench.MeasureProgress(*model, *replays, workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: progress(%s, %d replays): waitfree max %d (bound %d, %d censored) vs lockbased worst %d (%d censored): gap %.1fx\n",
		prog.Model, prog.Replays, prog.WaitFree.Max, prog.WaitFree.DeclaredBound, prog.WaitFree.Censored,
		max(prog.Locked.Max, prog.Locked.CensoredMax), prog.Locked.Censored, prog.Gap)

	gmp := runtime.GOMAXPROCS(0)
	var note string
	if workers == 1 || gmp == 1 {
		note = fmt.Sprintf("parallel leg ran with %d worker(s) at GOMAXPROCS=%d; speedup is not a parallelism measurement", workers, gmp)
		fmt.Printf("benchjson: note: %s\n", note)
	}
	rep := report{
		Version:     4,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  gmp,
		Sequential:  seq,
		Parallel:    par,
		Speedup:     par.PerSec / seq.PerSec,
		SpeedupNote: note,
		Reduction:   red,
		Shrink:      shr,
		Progress:    &prog,
	}
	entry, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	// The output file is a bench.History: {"latest": <this report>,
	// "history": [...]} — the stable `latest` key is what `make
	// bench-gate` reads, while history keeps the trajectory across PRs.
	// A non-empty file without a `latest` key is an error, never
	// overwritten.
	prev, err := os.ReadFile(*out)
	if err != nil && !os.IsNotExist(err) {
		fatal(err)
	}
	file, err := bench.AppendHistory(prev, entry)
	if err != nil {
		fatal(err)
	}
	if err := durable.WriteFile(*out, file); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: wrote %s\n", *out)
}

// gateAttempts is how many times the gate re-times each leg, keeping
// the best rate. A loaded or frequency-throttled CI box can halve any
// single timing; the best of a few attempts approximates what the
// machine can actually do, which is what a regression gate should
// compare against the baseline.
const gateAttempts = 3

// runGate is the CI regression gate (`make bench-gate`): it re-times
// the sequential plain leg and the reduced leg (best of gateAttempts
// each; the reduced leg at the baseline's parallel worker count, as
// recorded) and fails if either schedules/sec figure drops more than drop
// below the committed baseline, if the reduced-mode per-run cost ratio
// rises more than drop above it, or if the progress measurement's
// starvation gap falls more than drop below it. Only regressions fail;
// improvements and baseline-schema gaps (e.g. a pre-v3 baseline
// without a cost ratio, or a pre-v4 one without a progress section)
// pass with a note, so the gate never blocks the PR that introduces
// each figure.
func runGate(baselinePath string, drop float64) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fatal(fmt.Errorf("gate: reading baseline: %w", err))
	}
	h, err := bench.ParseHistory(data)
	if err != nil {
		fatal(fmt.Errorf("gate: parsing baseline %s: %w", baselinePath, err))
	}
	if h.Latest == nil {
		fatal(fmt.Errorf("gate: baseline %s has no entries", baselinePath))
	}
	var base report
	if err := json.Unmarshal(h.Latest, &base); err != nil {
		fatal(fmt.Errorf("gate: parsing baseline %s latest entry: %w", baselinePath, err))
	}
	// The baseline's reduction leg ran at the parallel leg's worker
	// count, and reduced schedule counts depend on it, so re-time it at
	// that count: at one worker the leg does different work.
	redWorkers := max(base.Parallel.Workers, 1)
	var seqRate, redRate float64
	costRatio := 0.0
	for i := 0; i < gateAttempts; i++ {
		seq, err := bench.ExploreThroughput(1)
		if err != nil {
			fatal(err)
		}
		red, err := bench.MeasureReduction(redWorkers)
		if err != nil {
			fatal(err)
		}
		seqRate = max(seqRate, seq.PerSec)
		redRate = max(redRate, red.ReducedPerSec)
		// The cost ratio is a cost: keep the best (lowest) attempt, the
		// same way the rates keep the best (highest).
		if costRatio == 0 || red.CostRatio < costRatio {
			costRatio = red.CostRatio
		}
	}
	failed := false
	checkLeg := func(name string, now, was float64) {
		if was <= 0 {
			fmt.Printf("benchjson: gate: %s: no baseline figure, skipping\n", name)
			return
		}
		floor := was * (1 - drop)
		verdict := "ok"
		if now < floor {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("benchjson: gate: %s: %.0f/sec vs baseline %.0f/sec (floor %.0f): %s\n",
			name, now, was, floor, verdict)
	}
	checkLeg("plain explore", seqRate, base.Sequential.PerSec)
	checkLeg(fmt.Sprintf("reduced explore (%d workers)", redWorkers), redRate, base.Reduction.ReducedPerSec)
	if was := base.Reduction.CostRatio; was <= 0 {
		fmt.Printf("benchjson: gate: reduced cost ratio: no baseline figure, skipping\n")
	} else {
		ceiling := was * (1 + drop)
		verdict := "ok"
		if costRatio > ceiling {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("benchjson: gate: reduced cost ratio: %.2fx vs baseline %.2fx (ceiling %.2fx): %s\n",
			costRatio, was, ceiling, verdict)
	}
	if base.Progress == nil || base.Progress.Gap <= 0 {
		fmt.Printf("benchjson: gate: progress gap: no baseline figure, skipping\n")
	} else {
		// Re-measure with the baseline's own model and replay count: the
		// measurement is a deterministic function of both, so on any
		// machine the gap should land exactly on the baseline — the
		// tolerance only buys room for deliberate workload retunes.
		prog, err := bench.MeasureProgress(base.Progress.Model, base.Progress.Replays, 1)
		if err != nil {
			fatal(fmt.Errorf("gate: progress measurement: %w", err))
		}
		floor := base.Progress.Gap * (1 - drop)
		verdict := "ok"
		if prog.Gap < floor {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("benchjson: gate: progress gap: %.1fx vs baseline %.1fx (floor %.1f): %s\n",
			prog.Gap, base.Progress.Gap, floor, verdict)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: gate: regressed more than %.0f%% against %s\n", drop*100, baselinePath)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
