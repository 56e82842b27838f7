package check_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/sim"
)

// twoProcBuilder: two single-invocation processes each executing `stmts`
// local statements; verify always passes.
func twoProcBuilder(stmts, quantum int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: quantum, Chooser: ch})
		for i := 0; i < 2; i++ {
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) { c.Local(stmts) })
		}
		return sys, func(runErr error) error { return runErr }
	}
}

// TestExploreAllCountsSchedules pins the full-tree schedule count for a
// tiny analyzable case: 2 processes × 1 statement each on one level,
// quantum 1. Decisions: who starts (2 ways); after its single-statement
// invocation ends, the other runs — 2 schedules.
func TestExploreAllCountsSchedules(t *testing.T) {
	res := check.ExploreAll(twoProcBuilder(1, 1), check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
	if res.Schedules != 2 {
		t.Fatalf("schedules = %d, want 2", res.Schedules)
	}
}

// TestExploreAllGrowsWithStatements: more statements → more preemption
// points → more schedules, and all are explored without truncation.
func TestExploreAllGrowsWithStatements(t *testing.T) {
	prev := 0
	for _, stmts := range []int{1, 2, 3} {
		res := check.ExploreAll(twoProcBuilder(stmts, 1), check.Options{MaxSchedules: 100000})
		if res.Truncated {
			t.Fatalf("stmts=%d truncated", stmts)
		}
		if res.Schedules <= prev {
			t.Fatalf("stmts=%d: schedules %d did not grow from %d", stmts, res.Schedules, prev)
		}
		prev = res.Schedules
	}
}

// TestExploreBudgetZeroIsSingleRun: budget 0 runs exactly the default
// schedule.
func TestExploreBudgetZeroIsSingleRun(t *testing.T) {
	res := check.ExploreBudget(twoProcBuilder(4, 2), 0, check.Options{})
	if res.Schedules != 1 {
		t.Fatalf("schedules = %d, want 1", res.Schedules)
	}
}

// TestExploreBudgetMonotone: a larger budget explores at least as many
// schedules.
func TestExploreBudgetMonotone(t *testing.T) {
	prev := 0
	for budget := 0; budget <= 3; budget++ {
		res := check.ExploreBudget(twoProcBuilder(4, 2), budget, check.Options{MaxSchedules: 100000})
		if res.Schedules < prev {
			t.Fatalf("budget %d explored %d < %d", budget, res.Schedules, prev)
		}
		prev = res.Schedules
	}
	if prev < 10 {
		t.Fatalf("budget 3 explored only %d schedules", prev)
	}
}

// TestExploreFindsPlantedBug: a violation reachable only via a specific
// preemption must be found by the budgeted explorer but not by the
// default schedule.
func TestExploreFindsPlantedBug(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch, MaxSteps: 1 << 12})
		r := mem.NewReg("r")
		bad := false
		// Process 0 writes 1 then 2; process 1 reads twice. The "bug"
		// fires iff process 1 observes the intermediate value 1.
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				c.Write(r, 1)
				c.Write(r, 2)
			})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				if c.Read(r) == 1 {
					bad = true
				}
				c.Read(r)
			})
		verify := func(runErr error) error {
			if runErr != nil {
				return runErr
			}
			if bad {
				return errors.New("intermediate state observed")
			}
			return nil
		}
		return sys, verify
	}
	if res := check.ExploreBudget(build, 0, check.Options{}); !res.OK() {
		t.Fatal("default schedule should not hit the planted bug")
	}
	res := check.ExploreBudget(build, 1, check.Options{})
	if res.OK() {
		t.Fatalf("budget-1 exploration missed the planted bug (%d schedules)", res.Schedules)
	}
}

// TestStopAtFirst stops exploration at the first violation. Parallelism
// is pinned to 1: the exact executed-schedule count under StopAtFirst is
// a sequential-engine guarantee (parallel workers stop cooperatively but
// may have started further runs; see
// TestParallelStopAtFirstFindsViolation).
func TestStopAtFirst(t *testing.T) {
	calls := 0
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(3) })
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(3) })
		calls++
		return sys, func(error) error { return errors.New("always fails") }
	}
	res := check.Fuzz(build, 50, check.Options{StopAtFirst: true, Parallelism: 1})
	if res.OK() || calls != 1 {
		t.Fatalf("calls = %d, want 1 (stop at first)", calls)
	}
	if res.ViolationsTotal != 1 {
		t.Fatalf("ViolationsTotal = %d, want 1", res.ViolationsTotal)
	}
}

// TestMaxViolationsCap caps recorded violations without stopping.
func TestMaxViolationsCap(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(1) })
		return sys, func(error) error { return errors.New("fails") }
	}
	res := check.Fuzz(build, 30, check.Options{MaxViolations: 4})
	if res.Schedules != 30 {
		t.Fatalf("schedules = %d, want 30", res.Schedules)
	}
	if len(res.Violations) != 4 {
		t.Fatalf("violations recorded = %d, want 4", len(res.Violations))
	}
	if res.ViolationsTotal != 30 {
		t.Fatalf("ViolationsTotal = %d, want 30 (cap must not hide the count)", res.ViolationsTotal)
	}
	// The canonical merge must keep the first seeds, not arbitrary ones.
	for i, v := range res.Violations {
		if want := fmt.Sprintf("seed=%d", i); v.Schedule != want {
			t.Fatalf("violation %d schedule = %q, want %q", i, v.Schedule, want)
		}
	}
}

// TestViolationCapKeepsFirst: at one worker, an exploration capped at
// MaxViolations: 2 keeps exactly the first two violations, by schedule
// key, of the uncapped exploration, with the same schedule text, error
// and decision vector, and still counts every violation.
func TestViolationCapKeepsFirst(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(o check.Options) *check.Result
	}{
		{"ExploreAll", func(o check.Options) *check.Result { return check.ExploreAll(fig3Builder(2, 0), o) }},
		{"ExploreAll/full", func(o check.Options) *check.Result {
			o.Reduction = check.ReductionFull
			return check.ExploreAll(fig3Builder(2, 2), o)
		}},
		{"ExploreBudget", func(o check.Options) *check.Result { return check.ExploreBudget(fig3Builder(3, 2), 4, o) }},
		{"ExploreBudget/full", func(o check.Options) *check.Result {
			o.Reduction = check.ReductionFull
			return check.ExploreBudget(fig3Builder(3, 2), 4, o)
		}},
		{"Fuzz", func(o check.Options) *check.Result { return check.Fuzz(fig3Builder(3, 2), 300, o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := tc.run(check.Options{Parallelism: 1, MaxViolations: 1 << 20})
			capped := tc.run(check.Options{Parallelism: 1, MaxViolations: 2})
			if all.ViolationsTotal < 3 || len(all.Violations) != all.ViolationsTotal {
				t.Fatalf("uncapped run kept %d of %d violations, want all of at least 3", len(all.Violations), all.ViolationsTotal)
			}
			if capped.ViolationsTotal != all.ViolationsTotal || len(capped.Violations) != 2 {
				t.Fatalf("capped run kept %d of %d violations, want 2 of %d", len(capped.Violations), capped.ViolationsTotal, all.ViolationsTotal)
			}
			for i, got := range capped.Violations {
				want := all.Violations[i]
				if got.Schedule != want.Schedule || got.Err.Error() != want.Err.Error() ||
					(got.Decisions == nil) != (want.Decisions == nil) || fmt.Sprint(got.Decisions) != fmt.Sprint(want.Decisions) {
					t.Errorf("violation %d: capped %s %v %v, uncapped %s %v %v",
						i, got.Schedule, got.Err, got.Decisions, want.Schedule, want.Err, want.Decisions)
				}
			}
		})
	}
}

// TestMaxSchedulesTruncates caps the exploration.
func TestMaxSchedulesTruncates(t *testing.T) {
	res := check.ExploreAll(twoProcBuilder(6, 1), check.Options{MaxSchedules: 10})
	if !res.Truncated || res.Schedules != 10 {
		t.Fatalf("schedules=%d truncated=%v, want 10/true", res.Schedules, res.Truncated)
	}
}

// TestViolationSchedulesReplayable: a reported budgeted-exploration
// violation names its switch placements, which rebuilt with the same
// builder reproduce the violation.
func TestViolationSchedulesReplayable(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: ch, MaxSteps: 1 << 12})
		r := mem.NewReg("r")
		outs := make([]mem.Word, 2)
		for i := 0; i < 2; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) {
					// Racy read-modify-write.
					v := c.Read(r)
					if v == mem.Bottom {
						v = 0
					}
					c.Write(r, v+1)
					outs[i] = v + 1
				})
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return runErr
			}
			if r.Load() != 2 {
				return fmt.Errorf("lost update: final=%d", r.Load())
			}
			return nil
		}
		return sys, verify
	}
	res := check.ExploreBudget(build, 1, check.Options{StopAtFirst: true})
	if res.OK() {
		t.Fatal("lost update not found")
	}
	if res.First().Schedule == "" {
		t.Fatal("violation lacks schedule description")
	}
}
