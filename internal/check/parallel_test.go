package check_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/hybridcas"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// fig3Builder builds the Fig. 3 uniprocessor consensus configuration
// used by the determinism tests: n deciders at quantum q, verifying
// agreement and non-⊥ decisions. At q below Theorem 1's bound (Q ≥ 8)
// the schedule space contains genuine violations, which exercises the
// violation-merge path, not just counting.
func fig3Builder(n, q int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: q, Chooser: ch, MaxSteps: 1 << 16})
		obj := unicons.New("cons")
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) { outs[i] = obj.Decide(c, mem.Word(i+1)) })
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			for i, o := range outs {
				if o == mem.Bottom {
					return fmt.Errorf("process %d decided ⊥", i)
				}
				if o != outs[0] {
					return fmt.Errorf("disagreement: %v", outs)
				}
			}
			return nil
		}
		return sys, verify
	}
}

// renderResult serializes every observable field of a Result, including
// violation schedules, error texts, decision vectors, and attached
// forensics (artifact JSON, shrink stats), for byte-identical
// comparison.
func renderResult(res *check.Result) string {
	s := fmt.Sprintf("schedules=%d truncated=%v total=%d aliased=%d\n",
		res.Schedules, res.Truncated, res.ViolationsTotal, res.Aliased)
	for _, v := range res.Violations {
		s += fmt.Sprintf("%s: %v decisions=%v\n", v.Schedule, v.Err, v.Decisions)
		if v.Artifact != nil {
			aj, err := json.Marshal(v.Artifact)
			if err != nil {
				panic(err)
			}
			s += fmt.Sprintf("  artifact=%s\n", aj)
		}
		if v.Shrink != nil {
			s += fmt.Sprintf("  shrink=%s\n", v.Shrink)
		}
		if v.ForensicsErr != nil {
			s += fmt.Sprintf("  forensics-err=%v\n", v.ForensicsErr)
		}
	}
	return s
}

// TestParallelMatchesSequential asserts the determinism guarantee: for
// explorations that run to completion, the parallel engine returns a
// Result byte-identical to the sequential (Parallelism: 1) engine —
// schedule counts, violation order, schedule strings, and error texts —
// on small Fig. 3 configurations both above and below the quantum
// bound. A "-violations" row must find some, so it compares merged
// violations and not only counts.
func TestParallelMatchesSequential(t *testing.T) {
	// At budget 4 the q2 budget row finds 60 violations in 28,271
	// schedules and keeps 16, so the capped merge is compared; budget 3
	// (2 in 4,167) keeps -short fast. Budget 2 finds none.
	budget := 4
	if testing.Short() {
		budget = 3
	}
	for _, tc := range []struct {
		name string
		run  func(opts check.Options) *check.Result
	}{
		{"ExploreAll/q3-violations", func(o check.Options) *check.Result {
			return check.ExploreAll(fig3Builder(2, 3), o)
		}},
		{"ExploreAll/q8-clean", func(o check.Options) *check.Result {
			o.MaxSchedules = 500000
			return check.ExploreAll(fig3Builder(2, 8), o)
		}},
		{"ExploreBudget/q2-violations", func(o check.Options) *check.Result {
			return check.ExploreBudget(fig3Builder(3, 2), budget, o)
		}},
		{"ExploreBudget/q8-clean", func(o check.Options) *check.Result {
			return check.ExploreBudget(fig3Builder(3, 8), 2, o)
		}},
		{"Fuzz/q2-violations", func(o check.Options) *check.Result {
			return check.Fuzz(fig3Builder(3, 2), 300, o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqRes := tc.run(check.Options{Parallelism: 1})
			if strings.HasSuffix(tc.name, "-violations") && seqRes.ViolationsTotal == 0 {
				t.Fatalf("no violations in %d schedules; the row compares no violation merge", seqRes.Schedules)
			}
			seq := renderResult(seqRes)
			for _, par := range []int{2, 4, 8} {
				got := renderResult(tc.run(check.Options{Parallelism: par}))
				if got != seq {
					t.Fatalf("parallelism %d diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", par, seq, got)
				}
			}
		})
	}
}

// TestParallelMinimizeCanonicalOrder extends the determinism guarantee
// to the forensics pass: with Options.Minimize on and Parallelism > 1,
// Result.Violations order, Result.First(), the captured decision
// vectors, the attached (minimized) artifact bundles, and the shrink
// stats must all be byte-identical to the sequential run — the shrinker
// is deterministic per violation and runs on the already-merged
// canonical list, so worker timing must not leak into the output.
func TestParallelMinimizeCanonicalOrder(t *testing.T) {
	// Per-strategy configurations with known violations that each
	// exploration completes (an incomplete exploration's schedule set is
	// timing-dependent by design and would invalidate the comparison).
	small := artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 3, MaxSteps: 1 << 16}
	wide := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 16}
	for _, tc := range []struct {
		name string
		meta artifact.Meta
		run  func(b check.Builder, opts check.Options) *check.Result
	}{
		{"ExploreAll", small, func(b check.Builder, o check.Options) *check.Result {
			return check.ExploreAll(b, o)
		}},
		{"ExploreBudget", wide, func(b check.Builder, o check.Options) *check.Result {
			o.MaxSchedules = 1000000
			return check.ExploreBudget(b, 3, o)
		}},
		{"Fuzz", wide, func(b check.Builder, o check.Options) *check.Result {
			return check.Fuzz(b, 400, o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta := tc.meta
			build, err := check.BuilderFor(meta)
			if err != nil {
				t.Fatal(err)
			}
			opts := func(par int) check.Options {
				return check.Options{Parallelism: par, ArtifactMeta: &meta,
					Minimize: true, MaxViolations: 4}
			}
			run := func(o check.Options) *check.Result { return tc.run(build, o) }
			seqRes := run(opts(1))
			if seqRes.OK() {
				t.Fatal("no violations below the quantum bound; the test exercises nothing")
			}
			if seqRes.Truncated || seqRes.Interrupted {
				t.Fatalf("exploration incomplete (truncated=%v interrupted=%v); comparison invalid",
					seqRes.Truncated, seqRes.Interrupted)
			}
			first := seqRes.First()
			if first.Artifact == nil {
				t.Fatalf("violation carries no artifact: %+v", first)
			}
			if first.Shrink == nil {
				t.Fatal("violation carries no shrink stats")
			}
			if first.ForensicsErr != nil {
				t.Fatalf("forensics failed: %v", first.ForensicsErr)
			}
			// The attached bundle must itself reproduce a violation.
			rep, err := artifact.Replay(first.Artifact, artifact.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Err == nil || rep.Err.Error() != first.Artifact.Err {
				t.Fatalf("attached bundle does not reproduce: recorded %q, replayed %v",
					first.Artifact.Err, rep.Err)
			}
			seq := renderResult(seqRes)
			for _, par := range []int{2, 8} {
				got := renderResult(run(opts(par)))
				if got != seq {
					t.Fatalf("parallelism %d diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", par, seq, got)
				}
			}
		})
	}
}

// TestForensicsRejectsForeignBuilder: a builder that is NOT the
// workload ArtifactMeta declares must yield ForensicsErr, never an
// artifact bundle that does not reproduce the violation.
func TestForensicsRejectsForeignBuilder(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8, MaxSteps: 1 << 16}
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 8, Chooser: ch, MaxSteps: 1 << 16})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(2) })
		return sys, func(error) error { return errors.New("always fails") }
	}
	res := check.ExploreAll(build, check.Options{Parallelism: 1, ArtifactMeta: &meta})
	if res.OK() {
		t.Fatal("no violation recorded")
	}
	v := res.First()
	if v.Artifact != nil {
		t.Fatalf("non-reproducing artifact attached: %+v", v.Artifact)
	}
	if v.ForensicsErr == nil || !strings.Contains(v.ForensicsErr.Error(), "not the declared") {
		t.Fatalf("ForensicsErr = %v, want declared-workload mismatch", v.ForensicsErr)
	}
}

// TestParallelStopAtFirstFindsViolation: with Parallelism > 1,
// StopAtFirst must still return a violation when one exists, stop
// claiming work cooperatively, and report exactly one violation. The
// exact schedule count is timing-dependent and deliberately not
// asserted (that is the sequential engine's guarantee; see
// TestStopAtFirst).
func TestParallelStopAtFirstFindsViolation(t *testing.T) {
	var builds atomic.Int64
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		builds.Add(1)
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(2) })
		return sys, func(error) error { return errors.New("always fails") }
	}
	res := check.Fuzz(build, 10000, check.Options{StopAtFirst: true, Parallelism: 4})
	if res.OK() {
		t.Fatal("violation not reported")
	}
	if len(res.Violations) != 1 {
		t.Fatalf("StopAtFirst returned %d violations, want 1", len(res.Violations))
	}
	if res.ViolationsTotal < 1 {
		t.Fatalf("ViolationsTotal = %d, want >= 1", res.ViolationsTotal)
	}
	if n := builds.Load(); n >= 10000 {
		t.Fatalf("cooperative cancellation did not stop the sweep (%d builds)", n)
	}
}

// TestParallelLinearizabilityRaceSmoke drives the parallel explorer over
// the Fig. 5 (hybridcas) linearizability builder. Under `go test -race`
// this guards the builder-reentrancy contract: the history collector,
// object, and output state are created inside the builder, so concurrent
// workers must not race. It also exercises check.History's
// one-run-at-a-time assumption — each run appends to its own collector.
func TestParallelLinearizabilityRaceSmoke(t *testing.T) {
	const (
		kindRead = iota + 1
		kindCAS
	)
	spec := func(state any, op check.HistOp) (any, uint64) {
		v := state.(uint64)
		switch op.Kind {
		case kindRead:
			return v, v
		case kindCAS:
			if v == op.Args[0] {
				return op.Args[1], 1
			}
			return v, 0
		default:
			panic("bad kind")
		}
	}
	key := func(state any) uint64 { return state.(uint64) }
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		const levels = 2
		sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: ch, MaxSteps: 1 << 20})
		obj := hybridcas.New("cas", levels, 0)
		hist := &check.History{}
		for i := 0; i < 3; i++ {
			i := i
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%levels})
			p.AddInvocation(func(c *sim.Ctx) {
				start := c.Now()
				v := obj.Read(c)
				hist.Add(check.HistOp{Proc: c.ID(), Start: start, End: c.Now(), Kind: kindRead, Ret: v})
				start = c.Now()
				ok := obj.CompareAndSwap(c, v, v+mem.Word(i)+1)
				r := mem.Word(0)
				if ok {
					r = 1
				}
				hist.Add(check.HistOp{Proc: c.ID(), Start: start, End: c.Now(),
					Kind: kindCAS, Args: [2]uint64{v, v + mem.Word(i) + 1}, Ret: r})
			})
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			return hist.Check(uint64(0), spec, key)
		}
		return sys, verify
	}
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	if res := check.Fuzz(build, seeds, check.Options{Parallelism: 8}); !res.OK() {
		t.Fatalf("non-linearizable history: %+v", res.First())
	}
	if res := check.ExploreBudget(build, 1, check.Options{Parallelism: 8, MaxSchedules: 5000}); !res.OK() {
		t.Fatalf("non-linearizable history (budget): %+v", res.First())
	}
}

// flakyFanoutBuilder is deliberately NOT a deterministic function of the
// decision sequence: the first build has three processes, later builds
// two, so replays of vectors generated from the first run see smaller
// fan-outs. Such replays clamp (alias an in-range vector) and must be
// skipped, not counted as distinct schedules.
func flakyFanoutBuilder() check.Builder {
	var builds atomic.Int64
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		n := 2
		if builds.Add(1) == 1 {
			n = 3
		}
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch})
		for i := 0; i < n; i++ {
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) { c.Local(1) })
		}
		return sys, func(runErr error) error { return runErr }
	}
}

// TestExploreAllSkipsClampedAliases: the 3-process first run yields the
// decision tree {[], [1], [2], [0 1]}, but the 2-process replays only
// have fan-out 2 at the single decision point: [2] clamps onto [1], and
// [0 1] never consumes its second decision. Both alias already-counted
// schedules; only the root and [1] are genuine.
func TestExploreAllSkipsClampedAliases(t *testing.T) {
	res := check.ExploreAll(flakyFanoutBuilder(), check.Options{Parallelism: 1})
	if res.Schedules != 2 {
		t.Fatalf("schedules = %d, want 2 (aliased replays double-counted)", res.Schedules)
	}
	if res.Aliased != 2 {
		t.Fatalf("aliased = %d, want 2", res.Aliased)
	}
	if !res.OK() {
		t.Fatalf("unexpected violation: %+v", res.First())
	}
}

// TestExploreBudgetSkipsClampedAliases is the BudgetedSwitch analogue:
// the first (3-process) run seeds deviations {d0→1, d0→2, d1→1}; on the
// 2-process replays d0→2 clamps and d1→1 is never reached, so both are
// aliases of counted schedules.
func TestExploreBudgetSkipsClampedAliases(t *testing.T) {
	res := check.ExploreBudget(flakyFanoutBuilder(), 1, check.Options{Parallelism: 1})
	if res.Schedules != 2 {
		t.Fatalf("schedules = %d, want 2 (aliased replays double-counted)", res.Schedules)
	}
	if res.Aliased != 2 {
		t.Fatalf("aliased = %d, want 2", res.Aliased)
	}
}

// TestProgressHook: the Progress hook receives monotonically increasing
// schedule counts and a live violation counter.
func TestProgressHook(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(1) })
		return sys, func(error) error { return errors.New("fails") }
	}
	var calls []check.ProgressInfo
	res := check.Fuzz(build, 40, check.Options{
		MaxViolations: 1000,
		ProgressEvery: 10,
		Parallelism:   1,
		Progress:      func(info check.ProgressInfo) { calls = append(calls, info) },
	})
	if res.Schedules != 40 {
		t.Fatalf("schedules = %d, want 40", res.Schedules)
	}
	if len(calls) != 4 {
		t.Fatalf("progress calls = %d, want 4", len(calls))
	}
	var last int64
	for _, info := range calls {
		if info.Schedules <= last {
			t.Fatalf("progress schedules not increasing: %+v", calls)
		}
		last = info.Schedules
	}
	if final := calls[len(calls)-1]; final.Schedules != 40 || final.Violations != 40 {
		t.Fatalf("final progress = %+v, want 40 schedules / 40 violations", final)
	}
}
