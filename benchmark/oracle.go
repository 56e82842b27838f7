package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/check"
)

// oracle checks every verdict the benchmark produces against a known
// answer and tallies the checks. A failed check makes the run incorrect
// and the benchmark exit nonzero.
type oracle struct {
	mu        sync.Mutex
	attempted int
	failures  []string
	// outcomes maps an operation's name to the deterministic outcome of
	// its first untraced run; later runs, traced ones included, must
	// reproduce it.
	outcomes map[string]string
}

func newOracle() *oracle { return &oracle{outcomes: map[string]string{}} }

// check records one checked operation; err is its mismatch (nil = as
// expected). It returns err for the caller's convenience.
func (o *oracle) check(op string, err error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		if len(o.failures) < 32 {
			o.failures = append(o.failures, op+": "+err.Error())
		}
	}
	return err
}

// same checks that an operation's deterministic outcome matches the
// first one recorded under its name.
func (o *oracle) same(op, outcome string) error {
	o.mu.Lock()
	first, ok := o.outcomes[op]
	if !ok {
		o.outcomes[op] = outcome
	}
	o.mu.Unlock()
	if ok && first != outcome {
		return o.check(op+" (repeat)", fmt.Errorf("outcome %q differs from the first run's %q", outcome, first))
	}
	return nil
}

func (o *oracle) failed() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.failures)
}

// complete reports an exploration cut short.
func complete(r *check.Result) error {
	if r.Truncated || r.Interrupted || r.TimedOutRuns > 0 {
		return fmt.Errorf("exploration incomplete: truncated=%v interrupted=%v timed-out=%d", r.Truncated, r.Interrupted, r.TimedOutRuns)
	}
	return nil
}

// wantBudget: the plain budget exploration visits exactly the known
// number of schedules and finds nothing (Theorem 1 holds at Q = 8).
func wantBudget(r *check.Result, schedules int) error {
	if err := complete(r); err != nil {
		return err
	}
	if schedules > 0 && r.Schedules != schedules {
		return fmt.Errorf("%d schedules, want %d", r.Schedules, schedules)
	}
	if r.ViolationsTotal != 0 {
		return fmt.Errorf("%d violations, want 0", r.ViolationsTotal)
	}
	return nil
}

// wantReducedViolation: the reduced exploration at Q = 0 must find the
// violation Theorem 1's Q >= 8 rules out. Reduced counts depend on
// worker timing, so the exact count is checked only at one worker.
func wantReducedViolation(r *check.Result, workers, schedules1 int) error {
	if err := complete(r); err != nil {
		return err
	}
	if r.ViolationsTotal == 0 {
		return fmt.Errorf("no violation found at Q=0")
	}
	if workers == 1 && schedules1 > 0 && r.Schedules != schedules1 {
		return fmt.Errorf("%d schedules at one worker, want %d", r.Schedules, schedules1)
	}
	return nil
}

// wantReducedClean: the reduced budget leg keeps the plain leg's clean
// verdict.
func wantReducedClean(r *check.Result, workers, schedules1 int) error {
	if err := complete(r); err != nil {
		return err
	}
	if r.ViolationsTotal != 0 {
		return fmt.Errorf("%d violations, want 0", r.ViolationsTotal)
	}
	if workers == 1 && schedules1 > 0 && r.Schedules != schedules1 {
		return fmt.Errorf("%d schedules at one worker, want %d", r.Schedules, schedules1)
	}
	return nil
}

// wantWaitFree: unicons measures exactly Theorem 1's bound, 8 own
// statements, and no invocation is left unfinished.
func wantWaitFree(r *check.Result) error {
	p := r.Progress
	if p == nil {
		return fmt.Errorf("no progress report")
	}
	if p.Max != 8 || p.Censored != 0 {
		return fmt.Errorf("max %d with %d censored, want max 8 with 0 censored", p.Max, p.Censored)
	}
	return nil
}

// wantStarved: the lock-based control starves: some invocations never
// finish and the worst one runs at least 100 statements.
func wantStarved(r *check.Result) error {
	p := r.Progress
	if p == nil {
		return fmt.Errorf("no progress report")
	}
	if p.Censored == 0 || max(p.Max, p.CensoredMax) < 100 {
		return fmt.Errorf("censored %d, worst %d: want censored > 0 and worst >= 100", p.Censored, max(p.Max, p.CensoredMax))
	}
	return nil
}

// progressOutcome is a measured distribution's deterministic summary.
func progressOutcome(r *check.Result) string {
	p := r.Progress
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("runs=%d samples=%d censored=%d p50=%d p99=%d max=%d cmax=%d",
		p.Runs, p.Samples, p.Censored, p.P50, p.P99, p.Max, p.CensoredMax)
}

// wantSoak: every planned run completed, clean, and none timed out.
func wantSoak(out soakOutcome, runs int64) error {
	if out.Runs != runs || out.Violations != 0 || out.TimedOut != 0 || out.Interrupted {
		return fmt.Errorf("runs %d (want %d), %d violations, %d timeouts, interrupted %v: want all runs clean",
			out.Runs, runs, out.Violations, out.TimedOut, out.Interrupted)
	}
	return nil
}

// wantLint: the program lints clean, the Fig. 3 decide operation
// derives Theorem 1's exact bound, an incremental run re-analyzes
// exactly the package dirs the edit invalidates (misses), and a warm run
// is all cache hits.
func wantLint(kind string, r *analysis.DriverResult, wantUnicons bool, misses int) error {
	if len(r.Diags) != 0 {
		return fmt.Errorf("%d diagnostics, want 0 (first: %s)", len(r.Diags), r.Diags[0].Message)
	}
	if kind == "incr" && r.CacheMisses != misses {
		return fmt.Errorf("incremental run had %d cache misses, want %d", r.CacheMisses, misses)
	}
	if kind == "warm" && r.CacheMisses != 0 {
		return fmt.Errorf("warm run had %d cache misses, want 0", r.CacheMisses)
	}
	if wantUnicons {
		bound := ""
		for _, op := range r.Bounds.Ops {
			if strings.HasSuffix(op.Package, "internal/unicons") && strings.HasSuffix(op.Func, ".Decide") {
				bound = op.Bound
			}
		}
		if bound != "8" {
			return fmt.Errorf("unicons Decide bound %q, want 8", bound)
		}
	}
	return nil
}

// wantReplayFails: a stored counterexample still fails when replayed.
func wantReplayFails(data []byte) error {
	var b artifact.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("decode bundle: %w", err)
	}
	rep, err := artifact.Replay(&b, artifact.ReplayOptions{})
	if err != nil {
		return err
	}
	if !rep.Failed() {
		return fmt.Errorf("artifact replays clean, want the recorded violation")
	}
	return nil
}
