// Command checker model-checks the paper's algorithms over schedule
// space: exhaustively for tiny configurations, with a context-switch
// deviation budget or random fuzzing for larger ones.
//
// Violations are reported with their canonical decision vectors; with
// -artifact-dir each one is additionally written as a replayable repro
// bundle (see internal/artifact and cmd/shrink), and -minimize shrinks
// every bundle to a minimal still-failing kernel first.
//
// The flags assemble an internal/service/jobspec.Check — the same
// serializable job spec the job server (cmd/server) accepts over REST —
// so a CLI invocation and the equivalent POSTed job run identically.
//
// Usage:
//
//	checker -alg fig3 -n 2 -q 8 -mode all
//	checker -alg fig3 -n 3 -q 2 -mode budget -budget 3   # finds the Q<8 violation
//	checker -alg fig7 -p 2 -q 2048 -mode fuzz -seeds 500
//	checker -alg fig7 -p 2 -mode all -timeout 30s        # partial results at the deadline
//	checker -alg fig3 -n 3 -waitfree-bound 8             # enforce the Theorem 1 step bound
//	checker -alg fig3 -n 3 -q 2 -minimize -artifact-dir ./artifacts
//	checker -alg fig3 -n 2 -q 0 -mode all -reduction full  # same verdict, far fewer schedules
//	checker -alg fig7 -p 2 -mode all -timeout 30s -frontier-out f.json  # export the unexplored remainder
//	checker -alg fig7 -p 2 -mode all -frontier-in f.json                # ...and continue it later
//	checker -alg fig3 -n 3 -mode fuzz -seeds 5000 -max 1000 -frontier-out f.json  # fuzz and reduced modes export too
//	checker -alg fig3 -n 3 -q 2 -mode fuzz -sched-model markov:stay=0.8,seed=7
//	checker -alg fig3 -n 3 -q 2 -measure -assert-max-within 8           # measured wait-freedom
//	checker -alg lockcounter -n 2 -v 2 -q 2 -max-steps 2000 -measure -assert-max-above 100
//
// -alg also accepts any registered workload name directly (fig3 and
// fig7 are aliases for unicons and multicons); -measure switches from
// checking to measuring — it fuzzes -replays runs under -sched-model
// and reports the per-invocation statement distribution
// (check.ProgressStats, written as JSON to -measure-out) instead of a
// verdict. The -assert-max-* flags turn a measurement into a CI
// assertion without any JSON postprocessing.
//
// Exit status: 0 = exploration complete, no violations; 1 = violations
// found (or a -measure assertion failed); 2 = usage error; 3 =
// interrupted by -timeout with no violation in the explored part (the
// verdict is partial, distinguishable from a clean complete run).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/durable"
	"repro/internal/service/jobspec"
)

func main() {
	var (
		alg        = flag.String("alg", "fig3", "algorithm: fig3|fig7, or any registered workload name")
		n          = flag.Int("n", 2, "processes (fig3)")
		v          = flag.Int("v", 1, "priority levels")
		p          = flag.Int("p", 2, "processors (fig7)")
		k          = flag.Int("k", 0, "C = P+K (fig7)")
		m          = flag.Int("m", 1, "processes per processor (fig7)")
		q          = flag.Int("q", 8, "scheduling quantum")
		mode       = flag.String("mode", "budget", "exploration: all|budget|fuzz")
		budget     = flag.Int("budget", 3, "context-switch deviation budget")
		seeds      = flag.Int("seeds", 500, "fuzz seeds")
		maxSch     = flag.Int("max", 200000, "schedule cap")
		parallel   = flag.Int("parallel", 0, "exploration workers (0 = all CPUs, 1 = sequential)")
		progress   = flag.Bool("progress", false, "report live schedules/sec and violation count on stderr")
		timeout    = flag.Duration("timeout", 0, "wall-clock bound; on expiry the exploration stops at a schedule boundary with partial results (0 = none)")
		wfBound    = flag.Int64("waitfree-bound", 0, "fail any run in which a live process exceeds this many of its own statements in one invocation (0 = off)")
		reduction  = flag.String("reduction", "none", "exploration reduction: none|sleepset|fingerprint|full (verdict-preserving; violation counts become lower bounds)")
		artDir     = flag.String("artifact-dir", "", "write a replayable repro bundle per violation into this directory")
		minimizeF  = flag.Bool("minimize", false, "shrink each violation to a minimal still-failing schedule before reporting")
		shrinkBudg = flag.Int("shrink-budget", 0, "candidate replays per shrunk violation (0 = internal/minimize default)")
		runDeadl   = flag.Duration("run-deadline", 0, "per-run wall-clock bound; a run exceeding it twice is skipped and counted, never hangs the exploration (0 = off)")
		memSoftMB  = flag.Int64("mem-soft-mb", 0, "soft heap ceiling in MiB: under pressure, shed the fingerprint cache and step workers down instead of dying (0 = off)")
		frontOut   = flag.String("frontier-out", "", "when the exploration is cut short, write the unexplored frontier (subtrees, or the rest of the fuzz seed range) to this file")
		frontIn    = flag.String("frontier-in", "", "seed the exploration from a frontier file written by -frontier-out instead of the root")
		maxSteps   = flag.Int64("max-steps", 0, "per-run simulator step limit (0 = per-algorithm default)")
		schedModel = flag.String("sched-model", "", "scheduler model for -mode fuzz and -measure (sched.ParseModelSpec grammar, e.g. markov:stay=0.8,seed=7; \"\" = uniform)")
		measure    = flag.Bool("measure", false, "measure instead of check: fuzz -replays runs under -sched-model and report the per-invocation statement distribution")
		measureOut = flag.String("measure-out", "", "write the measured check.ProgressStats JSON to this file")
		replays    = flag.Int("replays", 0, "measured runs for -measure (0 = jobspec default)")
		maxAbove   = flag.Int64("assert-max-above", 0, "with -measure: exit 1 unless the observed worst case (completed or censored) exceeds this (negative-control assertion; 0 = off)")
		maxWithin  = flag.Int64("assert-max-within", 0, "with -measure: exit 1 unless every invocation completed within this many statements (wait-freedom assertion; 0 = off)")
	)
	flag.Parse()

	var meta artifact.Meta
	switch *alg {
	case "fig3", "unicons":
		meta = artifact.Meta{Workload: "unicons", N: *n, V: *v, Quantum: *q, MaxSteps: 1 << 18}
	case "fig7", "multicons":
		meta = artifact.Meta{Workload: "multicons", P: *p, K: *k, M: *m, V: *v, Quantum: *q, MaxSteps: 1 << 23}
	default:
		if !artifact.Known(*alg) {
			fmt.Fprintf(os.Stderr, "checker: unknown -alg %q (have fig3, fig7, %v)\n", *alg, artifact.Workloads())
			os.Exit(2)
		}
		meta = artifact.Meta{Workload: *alg, N: *n, V: *v, P: *p, K: *k, M: *m, Quantum: *q, MaxSteps: 1 << 18}
	}
	if *maxSteps > 0 {
		meta.MaxSteps = *maxSteps
	}
	meta.WaitFreeBound = *wfBound

	if *measure {
		runMeasure(meta, *schedModel, *replays, *parallel, *runDeadl, *measureOut, *maxAbove, *maxWithin, *progress)
		return
	}
	spec := &jobspec.Check{
		Meta:          meta,
		Mode:          *mode,
		Model:         *schedModel,
		Budget:        *budget,
		Seeds:         *seeds,
		MaxSchedules:  *maxSch,
		Parallelism:   *parallel,
		Reduction:     *reduction,
		Artifacts:     *artDir != "",
		Minimize:      *minimizeF,
		ShrinkBudget:  *shrinkBudg,
		RunDeadlineMS: runDeadl.Milliseconds(),
		MemSoftMB:     *memSoftMB,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "checker: %v\n", err)
		os.Exit(2)
	}
	build, err := spec.Builder()
	if err != nil {
		fmt.Fprintf(os.Stderr, "checker: %v\n", err)
		os.Exit(2)
	}
	opts, err := spec.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "checker: %v\n", err)
		os.Exit(2)
	}

	opts.ExportFrontier = *frontOut != ""
	if *frontIn != "" {
		data, err := os.ReadFile(*frontIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "checker: %v\n", err)
			os.Exit(2)
		}
		f := &check.Frontier{}
		if err := json.Unmarshal(data, f); err != nil {
			fmt.Fprintf(os.Stderr, "checker: frontier %s: %v\n", *frontIn, err)
			os.Exit(2)
		}
		if f.Explorer != "" && f.Explorer != *mode {
			fmt.Fprintf(os.Stderr, "checker: frontier %s was exported by -mode %s, not %s\n", *frontIn, f.Explorer, *mode)
			os.Exit(2)
		}
		if f.Empty() {
			fmt.Println("frontier is empty: the exported exploration had already completed")
			return
		}
		opts.SeedFrontier = f
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}
	if *progress {
		opts.Progress = func(info check.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "checker: %d schedules, %d violations, %.0f schedules/sec\n",
				info.Schedules, info.Violations, info.SchedulesPerSec)
		}
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	fmt.Printf("exploring with %d workers\n", workers)
	res := spec.Run(build, opts)

	fmt.Printf("explored %d schedules (truncated=%v)\n", res.Schedules, res.Truncated)
	if rs := res.Reduction; rs != nil {
		fmt.Printf("reduction %s: %d sleep-deadlock runs, %d sleep-skipped branches, %d fingerprint-pruned runs\n",
			rs.Mode, rs.SleepDeadlockRuns, rs.SleepSkippedBranches, rs.FingerprintPrunedRuns)
		if rs.CacheHits > 0 || rs.CacheEntries > 0 {
			fmt.Printf("fingerprint cache: %d hits, %d entries, %d evictions\n",
				rs.CacheHits, rs.CacheEntries, rs.CacheEvictions)
		}
	}
	if res.Interrupted {
		fmt.Printf("interrupted by -timeout %v: results are partial (%d schedules explored, %d violations, %d work steals)\n",
			*timeout, res.Schedules, res.ViolationsTotal, res.Steals)
	}
	if res.TimedOutRuns > 0 {
		fmt.Printf("%d runs exceeded -run-deadline %v twice and were skipped (coverage is partial)\n",
			res.TimedOutRuns, *runDeadl)
	}
	for _, ev := range res.Degradations {
		fmt.Printf("degraded: %s\n", ev)
	}
	if *frontOut != "" {
		if res.Frontier == nil {
			fmt.Println("exploration ran to completion: no frontier to export")
		} else {
			data, err := json.MarshalIndent(res.Frontier, "", " ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "checker: encode frontier: %v\n", err)
				os.Exit(2)
			}
			if err := durable.WriteFile(*frontOut, append(data, '\n')); err != nil {
				fmt.Fprintf(os.Stderr, "checker: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("frontier: %d unexplored subtrees written to %s (continue with -frontier-in)\n",
				len(res.Frontier.Items), *frontOut)
		}
	}
	if res.StepLimited > 0 {
		fmt.Printf("%d runs hit the step limit (counted separately, not violations)\n", res.StepLimited)
	}
	if res.Aliased > 0 {
		fmt.Printf("skipped %d aliased replays (non-reentrant builder?)\n", res.Aliased)
	}
	if res.OK() {
		fmt.Println("no violations found")
		if res.Interrupted {
			os.Exit(3) // clean so far, but the verdict is partial
		}
		return
	}
	fmt.Printf("VIOLATIONS: %d recorded of %d total\n", len(res.Violations), res.ViolationsTotal)
	for i := range res.Violations {
		viol := &res.Violations[i]
		fmt.Printf("  %s: %v\n", viol.Schedule, viol.Err)
		if viol.Decisions != nil {
			fmt.Printf("    decisions=%v\n", viol.Decisions)
		}
		if viol.Shrink != nil {
			fmt.Printf("    shrunk: %s\n", viol.Shrink)
		}
		if viol.ForensicsErr != nil {
			fmt.Fprintf(os.Stderr, "checker: forensics failed for %s: %v\n", viol.Schedule, viol.ForensicsErr)
		}
		if viol.Artifact != nil && *artDir != "" {
			path, err := viol.Artifact.SaveDir(*artDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "checker: %v\n", err)
			} else {
				fmt.Printf("    artifact: %s\n", path)
			}
		}
	}
	os.Exit(1)
}

// runMeasure executes a measurement campaign (-measure): the CLI face
// of a jobspec.Measure, so `checker -measure` and the equivalent
// POSTed measure job produce the same distribution. Assertions make
// the measurement a self-contained CI check: -assert-max-within pins
// practical wait-freedom (every invocation finished, none past the
// bound), -assert-max-above pins that a negative control visibly
// starves.
func runMeasure(meta artifact.Meta, model string, replays, parallel int, runDeadline time.Duration, outPath string, maxAbove, maxWithin int64, progress bool) {
	spec := &jobspec.Measure{
		Meta:          meta,
		Model:         model,
		Replays:       replays,
		Parallelism:   parallel,
		RunDeadlineMS: runDeadline.Milliseconds(),
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "checker: %v\n", err)
		os.Exit(2)
	}
	build, err := spec.Builder()
	if err != nil {
		fmt.Fprintf(os.Stderr, "checker: %v\n", err)
		os.Exit(2)
	}
	opts, err := spec.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "checker: %v\n", err)
		os.Exit(2)
	}
	if progress {
		opts.Progress = func(info check.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "checker: %d replays, %.0f/sec\n", info.Schedules, info.SchedulesPerSec)
		}
	}
	fmt.Printf("measuring %s under %s: %d replays\n", meta.Workload, spec.ResolvedModel(), spec.ResolvedReplays())
	res := spec.Run(build, opts)
	p := res.Progress
	if p == nil || p.Runs == 0 {
		fmt.Fprintln(os.Stderr, "checker: measurement produced no runs")
		os.Exit(2)
	}
	worst := max(p.Max, p.CensoredMax)
	fmt.Printf("measured %d runs, %d invocation samples (%d censored)\n", p.Runs, p.Samples, p.Censored)
	fmt.Printf("stmts/invocation: p50=%d p90=%d p99=%d p999=%d max=%d", p.P50, p.P90, p.P99, p.P999, p.Max)
	if p.CensoredMax > 0 {
		fmt.Printf(" censored-max=%d", p.CensoredMax)
	}
	fmt.Println()
	if p.HalfLife > 0 {
		fmt.Printf("tail half-life: %.1f stmts\n", p.HalfLife)
	}
	if meta.WaitFreeBound > 0 {
		fmt.Printf("%d of %d runs exceeded the declared bound %d\n", res.ViolationsTotal, p.Runs, meta.WaitFreeBound)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "checker: encode distribution: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "checker: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("distribution written to %s\n", outPath)
	}
	failed := false
	if maxWithin > 0 {
		if p.Censored > 0 {
			fmt.Printf("ASSERTION FAILED: %d invocations never finished (want all within %d stmts)\n", p.Censored, maxWithin)
			failed = true
		} else if p.Max > maxWithin {
			fmt.Printf("ASSERTION FAILED: max %d stmts/invocation exceeds %d\n", p.Max, maxWithin)
			failed = true
		} else {
			fmt.Printf("assertion ok: all invocations within %d stmts (max %d, none censored)\n", maxWithin, p.Max)
		}
	}
	if maxAbove > 0 {
		if worst <= maxAbove {
			fmt.Printf("ASSERTION FAILED: worst case %d stmts does not exceed %d (negative control did not starve)\n", worst, maxAbove)
			failed = true
		} else {
			fmt.Printf("assertion ok: worst case %d stmts exceeds %d\n", worst, maxAbove)
		}
	}
	if failed {
		os.Exit(1)
	}
}
