// Command soak stress-tests the full object stack for a configurable
// duration: randomized schedules over mixed workloads (Fig. 3 consensus,
// Fig. 5 C&S with reclamation, universal counter/queue), verifying every
// run's crash-tolerant invariants plus an independent Axiom 1/2 auditor.
// Each run is the registered "soakmix" artifact workload with its
// parameters and schedule derived deterministically from the base seed
// and the run index (artifact.SoakMeta), so a failure reproduces with
// the same -seed (and -crash-seed) at any -parallel setting — and can be
// saved as a replayable repro bundle.
//
// With -workload the campaign instead pins every run to one registered
// workload family (e.g. lockcounter) with fixed -n/-v/-q/-waitfree-bound
// parameters; only the seeded schedule and crash plan vary per run
// (artifact.SeededMeta). The workload choice is part of the campaign
// identity, so a fixed-workload state directory cannot be resumed as a
// soakmix sweep or vice versa.
//
// With -crashes > 0 every run additionally injects up to that many
// seeded random crash-stop faults.
//
// The flags assemble an internal/service/jobspec.Soak — the same
// serializable job spec the job server (cmd/server) accepts over REST —
// so a CLI invocation and the equivalent POSTed job run identically.
//
// The runner is a durable campaign (internal/campaign). With -state-dir
// progress is journaled and checkpointed crash-safely: a campaign killed
// at any point — SIGKILL included — resumes exactly where it left off
// with
//
//	soak -resume <dir>
//
// which reads the full spec (seeds and workload parameters) back from
// the directory's checkpoint. -run-timeout arms a per-run watchdog that
// turns a stuck schedule into a recorded incident instead of a hang, and
// -mem-soft-mb sheds parallelism under memory pressure rather than
// dying.
//
// SIGINT/SIGTERM stop gracefully: in-flight runs finish, the summary is
// still printed, and with -state-dir the state is checkpointed for
// resume (exit 0); without one the interrupted run exits 130. A second
// signal aborts immediately.
//
// Exit status is non-zero on the first violation. Resuming a campaign
// that already failed runs only what a kill left undone below its
// first violation; add -keep-going to run past it. With -artifact-dir
// (or a -state-dir, which defaults it to <dir>/artifacts) the failing
// run is written there as a repro bundle for cmd/shrink. The last line
// of stdout is a machine-readable JSON summary:
//
//	{"crashes":C,"failed":false,"interrupted":false,"runs":N,"timeouts":T,"violations":V}
//
// plus an "artifact":"<path>" field when a bundle was written and a
// "resumed":K field on resumed campaigns; cmd/shrink reads the "failed"
// and "artifact" fields directly from a captured soak log.
//
// Usage:
//
//	soak -seconds 30
//	soak -runs 500        # fixed run count instead of a time budget
//	soak -runs 500 -parallel 1   # sequential
//	soak -runs 500 -crashes 2    # crash up to 2 processes per run
//	soak -seconds 60 -crashes 2 -artifact-dir ./soak-artifacts
//	soak -runs 200 -workload lockcounter -n 2 -v 2 -q 4 -waitfree-bound 60
//	soak -runs 200 -sched-model markov:stay=0.9   # Markov-walk schedules, still seed-derived
//	soak -runs 100000 -state-dir ./campaign   # durable; kill it anytime
//	soak -resume ./campaign                   # continue where it stopped
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/service/jobspec"
)

func main() {
	var (
		seconds    = flag.Int("seconds", 10, "time budget (ignored when -runs > 0)")
		runs       = flag.Int64("runs", 0, "fixed number of runs (0 = use -seconds)")
		seed       = flag.Int64("seed", time.Now().UnixNano(), "base seed")
		parallel   = flag.Int("parallel", 0, "concurrent soak workers (0 = all CPUs)")
		crashes    = flag.Int("crashes", 0, "max crash-stop faults injected per run (capped at nprocs-1)")
		crashSeed  = flag.Int64("crash-seed", 0, "base seed for crash injection (0 = derive from -seed)")
		workload   = flag.String("workload", "", "pin every run to one registered workload family instead of the soakmix sweep")
		n          = flag.Int("n", 0, "processes for a fixed -workload (0 = workload default)")
		v          = flag.Int("v", 0, "priority levels for a fixed -workload (0 = workload default)")
		q          = flag.Int("q", 0, "scheduling quantum for a fixed -workload (0 = workload default)")
		wfBound    = flag.Int64("waitfree-bound", 0, "fail any fixed-workload run in which a live process exceeds this many of its own statements in one invocation (0 = off)")
		schedModel = flag.String("sched-model", "", "scheduler model to draw schedules from (simple sched.ParseModelSpec specs, e.g. markov:stay=0.8; \"\" = uniform; per-run seeds still derive from -seed)")
		artDir     = flag.String("artifact-dir", "", "write failing runs as repro bundles into this directory")
		stateDir   = flag.String("state-dir", "", "journal and checkpoint progress into this directory (crash-safe, resumable)")
		resume     = flag.String("resume", "", "resume the campaign persisted in this state directory (the spec is read from its checkpoint)")
		runTimeout = flag.Duration("run-timeout", 0, "per-run watchdog deadline: a run exceeding it twice is recorded as an incident and skipped (0 = off)")
		memSoftMB  = flag.Int64("mem-soft-mb", 0, "soft heap ceiling in MiB: under pressure, step worker count down instead of dying (0 = off)")
		ckptEvery  = flag.Int64("checkpoint-every", 0, "completed runs between checkpoint snapshots (0 = default)")
		keepGoing  = flag.Bool("keep-going", false, "record violations and continue instead of stopping at the first one")
	)
	flag.Parse()

	spec := &jobspec.Soak{
		Workload:        *workload,
		N:               *n,
		V:               *v,
		Quantum:         *q,
		WaitFreeBound:   *wfBound,
		Model:           *schedModel,
		Runs:            *runs,
		Seed:            *seed,
		CrashSeed:       *crashSeed,
		MaxCrashes:      *crashes,
		Parallelism:     *parallel,
		RunDeadlineMS:   runTimeout.Milliseconds(),
		CheckpointEvery: *ckptEvery,
		MemSoftMB:       *memSoftMB,
		KeepGoing:       *keepGoing,
	}
	dir := *stateDir
	if *resume != "" {
		if dir != "" && dir != *resume {
			fmt.Fprintln(os.Stderr, "soak: -resume and -state-dir name different directories")
			os.Exit(2)
		}
		dir = *resume
		cp, err := campaign.LoadCheckpoint(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			os.Exit(2)
		}
		if cp == nil {
			fmt.Fprintf(os.Stderr, "soak: nothing to resume in %s (no checkpoint)\n", dir)
			os.Exit(2)
		}
		restored := jobspec.SoakFromIdentity(cp.Identity)
		restored.Runs = spec.Runs
		restored.Parallelism = spec.Parallelism
		restored.RunDeadlineMS = spec.RunDeadlineMS
		restored.CheckpointEvery = spec.CheckpointEvery
		restored.MemSoftMB = spec.MemSoftMB
		restored.KeepGoing = spec.KeepGoing
		spec = restored
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(2)
	}

	workers := spec.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	fmt.Printf("soak: base seed %d, crash seed %d, max crashes/run %d, %d workers\n",
		spec.Seed, spec.ResolvedCrashSeed(), spec.MaxCrashes, workers)
	if spec.Workload != "" {
		fmt.Printf("soak: fixed workload %s (n=%d v=%d q=%d waitfree-bound=%d)\n",
			spec.Workload, spec.N, spec.V, spec.Quantum, spec.WaitFreeBound)
	}

	// Graceful stop: closed by the first signal or the -seconds timer.
	stop := make(chan struct{})
	var stopOnce sync.Once
	requestStop := func() { stopOnce.Do(func() { close(stop) }) }
	var signalled atomic.Bool

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		signalled.Store(true)
		fmt.Fprintln(os.Stderr, "soak: signal received; finishing in-flight runs (signal again to abort)")
		requestStop()
		<-sigs
		fmt.Fprintln(os.Stderr, "soak: second signal; aborting without checkpoint")
		os.Exit(130)
	}()

	if spec.Runs == 0 {
		timer := time.AfterFunc(time.Duration(*seconds)*time.Second, requestStop)
		defer timer.Stop()
	}

	cfg := spec.Config()
	cfg.StateDir = dir
	cfg.ArtifactDir = *artDir
	cfg.Stop = stop
	cfg.Log = func(msg string) { fmt.Fprintln(os.Stderr, "soak: "+msg) }
	res, err := campaign.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(2)
	}

	s := res.State
	interrupted := signalled.Load() || (spec.Runs > 0 && res.Interrupted)
	cleanRuns := s.Runs - int64(len(s.Violations)) - s.TimedOut
	artPath := ""
	if len(s.Violations) > 0 {
		artPath = s.Violations[0].Artifact
	}

	if res.Failed() {
		viol := s.Violations[0]
		if viol.Artifact != "" {
			fmt.Printf("soak: repro bundle written to %s\n", viol.Artifact)
		}
		fmt.Fprintf(os.Stderr, "soak: FAILED at run %d (base seed %d, crash seed %d) after %d clean runs: %s\n",
			viol.Idx, spec.Seed, spec.ResolvedCrashSeed(), cleanRuns, viol.Err)
		summary(&s, true, interrupted, artPath)
		os.Exit(1)
	}

	fmt.Printf("soak: %d runs clean, %d crashes injected, %d timed out\n", cleanRuns, s.Crashes, s.TimedOut)
	if interrupted && dir != "" {
		fmt.Printf("soak: state saved; continue with: soak -resume %s\n", dir)
	}
	summary(&s, false, interrupted, "")
	if signalled.Load() && dir == "" {
		os.Exit(130) // interrupted without durable state: nonzero, like a killed soak
	}
}

// summary prints the machine-readable last-line summary.
func summary(s *campaign.State, failed, interrupted bool, artifactPath string) {
	line := map[string]any{
		"runs": s.Runs, "violations": len(s.Violations), "crashes": s.Crashes,
		"timeouts": s.TimedOut, "failed": failed, "interrupted": interrupted,
	}
	if artifactPath != "" {
		line["artifact"] = artifactPath
	}
	if s.Resumed > 0 {
		line["resumed"] = s.Resumed
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
}
