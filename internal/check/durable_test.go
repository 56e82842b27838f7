package check_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// racyCounterBuilder is a 2-process racy read-modify-write counter with
// a lost-update bug reachable only under preemption — the standard
// workload for resume tests that must carry violations across legs.
func racyCounterBuilder(ch sim.Chooser) (*sim.System, check.Verify) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: ch, MaxSteps: 1 << 12})
	r := mem.NewReg("r")
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				v := c.Read(r)
				if v == mem.Bottom {
					v = 0
				}
				c.Write(r, v+1)
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

// resumeToCompletion repeatedly seeds the exported frontier back into
// leg until the frontier drains, JSON round-tripping it between legs to
// prove it survives serialization (the campaign checkpoint path).
// Returns the summed schedule and violation counts over all legs.
func resumeToCompletion(t *testing.T, leg func(f *check.Frontier) *check.Result) (schedules, violations int) {
	t.Helper()
	var f *check.Frontier
	for legs := 0; ; legs++ {
		if legs > 10000 {
			t.Fatal("resume did not converge")
		}
		res := leg(f)
		schedules += res.Schedules
		violations += res.ViolationsTotal
		if res.Frontier.Empty() {
			return schedules, violations
		}
		b, err := json.Marshal(res.Frontier)
		if err != nil {
			t.Fatalf("marshal frontier: %v", err)
		}
		f = new(check.Frontier)
		if err := json.Unmarshal(b, f); err != nil {
			t.Fatalf("unmarshal frontier: %v", err)
		}
	}
}

// resumeRow is one way of cutting an exploration into resumed legs: a
// reduction and a worker count.
type resumeRow struct {
	red check.Reduction
	par int
}

// resumeRows are the reductions and worker counts a resumed exploration
// is checked under; TestFrontierResumeParallel covers plain legs at four
// workers.
var resumeRows = []resumeRow{
	{check.ReductionNone, 1},
	{check.ReductionSleepSet, 1},
	{check.ReductionFull, 1},
	{check.ReductionSleepSet, 4},
	{check.ReductionFull, 4},
}

func (r resumeRow) String() string { return fmt.Sprintf("%s/P%d", r.red, r.par) }

// checkLegs holds the legs of row, resumed from exported frontiers, to
// the uninterrupted one-worker result ref. Without a fingerprint cache
// the frontier carries all the exploration's state, and the subtrees a
// sleep set removes do not depend on the order they are explored in, so
// the legs run exactly ref's schedules and violations at any worker
// count. A resumed leg starts with an empty fingerprint cache, so
// full-reduction legs keep the verdict and run at most noCache
// schedules (the exploration without the cache), and at one worker at
// least ref's.
func checkLegs(t *testing.T, row resumeRow, ref *check.Result, noCache, legs, schedules, violations int) {
	t.Helper()
	if legs < 3 {
		t.Fatalf("only %d legs; the interruption never bit", legs)
	}
	if (violations > 0) != (ref.ViolationsTotal > 0) {
		t.Fatalf("verdict changed: legs found %d violations, uninterrupted %d", violations, ref.ViolationsTotal)
	}
	if row.red != check.ReductionFull {
		if schedules != ref.Schedules || violations != ref.ViolationsTotal {
			t.Fatalf("legs executed %d schedules with %d violations, uninterrupted %d with %d",
				schedules, violations, ref.Schedules, ref.ViolationsTotal)
		}
		return
	}
	if schedules > noCache {
		t.Fatalf("legs executed %d schedules, more than the %d without a fingerprint cache", schedules, noCache)
	}
	if row.par == 1 && schedules < ref.Schedules {
		t.Fatalf("legs executed %d schedules, fewer than the uninterrupted %d", schedules, ref.Schedules)
	}
}

// TestFrontierResumeExploreAll: an ExploreAll interrupted every few
// schedules and resumed from its exported frontier covers the
// uninterrupted exploration, with and without reduction (each reduced
// item carries its sleep set).
func TestFrontierResumeExploreAll(t *testing.T) {
	// Quantum 0, so that sleep sets prune: under quantum scheduling every
	// statement on a processor wakes the sleepers there.
	build := fig3Builder(2, 0)
	noCache := check.ExploreAll(build, check.Options{Parallelism: 1, Reduction: check.ReductionSleepSet})
	for _, row := range resumeRows {
		t.Run(row.String(), func(t *testing.T) {
			ref := check.ExploreAll(build, check.Options{Parallelism: 1, Reduction: row.red})
			if ref.Truncated || ref.OK() {
				t.Fatalf("baseline: schedules=%d truncated=%v violations=%d", ref.Schedules, ref.Truncated, ref.ViolationsTotal)
			}
			legs := 0
			schedules, violations := resumeToCompletion(t, func(f *check.Frontier) *check.Result {
				legs++
				return check.ExploreAll(build, check.Options{
					Parallelism: row.par, Reduction: row.red, MaxSchedules: 50, ExportFrontier: true, SeedFrontier: f,
				})
			})
			checkLegs(t, row, ref, noCache.Schedules, legs, schedules, violations)
		})
	}
}

// TestFrontierResumeExploreBudget: the same for the budgeted explorer,
// which ignores sleep sets and prunes by fingerprint under full
// reduction.
func TestFrontierResumeExploreBudget(t *testing.T) {
	build := fig3Builder(2, 1)
	noCache := check.ExploreBudget(build, 3, check.Options{Parallelism: 1})
	for _, row := range resumeRows {
		t.Run(row.String(), func(t *testing.T) {
			ref := check.ExploreBudget(build, 3, check.Options{Parallelism: 1, Reduction: row.red})
			if ref.OK() {
				t.Fatal("baseline found no violation")
			}
			legs := 0
			schedules, violations := resumeToCompletion(t, func(f *check.Frontier) *check.Result {
				legs++
				return check.ExploreBudget(build, 3, check.Options{
					Parallelism: row.par, Reduction: row.red, MaxSchedules: 20, ExportFrontier: true, SeedFrontier: f,
				})
			})
			checkLegs(t, row, ref, noCache.Schedules, legs, schedules, violations)
		})
	}
}

// TestFrontierResumeFuzz: a Fuzz cut every few seeds runs the next
// MaxSchedules seeds at any parallelism, and its frontier is the first
// seed not yet run, so the legs run the uninterrupted seed range
// exactly: summed schedules, violation totals and the violating seeds
// all match.
func TestFrontierResumeFuzz(t *testing.T) {
	const seeds = 300
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", par), func(t *testing.T) {
			opts := check.Options{Parallelism: par, MaxViolations: seeds}
			full := check.Fuzz(racyCounterBuilder, seeds, opts)
			if full.OK() {
				t.Fatal("baseline found no lost update")
			}
			var want, got []string
			for _, v := range full.Violations {
				want = append(want, v.Schedule)
			}
			legs := 0
			schedules, violations := resumeToCompletion(t, func(f *check.Frontier) *check.Result {
				legs++
				o := opts
				o.MaxSchedules, o.ExportFrontier, o.SeedFrontier = 40, true, f
				res := check.Fuzz(racyCounterBuilder, seeds, o)
				for _, v := range res.Violations {
					got = append(got, v.Schedule)
				}
				return res
			})
			checkLegs(t, resumeRow{check.ReductionNone, par}, full, full.Schedules, legs, schedules, violations)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("legs recorded violating seeds %v, uninterrupted %v", got, want)
			}
		})
	}
}

// TestFrontierResumeParallel: a frontier exported by an interrupted
// parallel exploration (claim-failure and drain export paths) resumed
// in parallel still covers the space exactly: summed schedules match
// the uninterrupted count.
func TestFrontierResumeParallel(t *testing.T) {
	build := twoProcBuilder(4, 1)
	full := check.ExploreAll(build, check.Options{Parallelism: 1})
	schedules, _ := resumeToCompletion(t, func(f *check.Frontier) *check.Result {
		return check.ExploreAll(build, check.Options{
			Parallelism: 4, MaxSchedules: 10, ExportFrontier: true, SeedFrontier: f,
		})
	})
	if schedules != full.Schedules {
		t.Fatalf("parallel resumed legs executed %d schedules, uninterrupted executed %d", schedules, full.Schedules)
	}
}

// TestFrontierExportDeterministic: with a deterministic interruption
// point (MaxSchedules at Parallelism 1) the exported frontier is
// byte-identical run to run — the property campaign checkpoints build
// on.
func TestFrontierExportDeterministic(t *testing.T) {
	build := twoProcBuilder(4, 1)
	opts := check.Options{Parallelism: 1, MaxSchedules: 7, ExportFrontier: true}
	a := check.ExploreAll(build, opts)
	b := check.ExploreAll(build, opts)
	if a.Frontier.Empty() || b.Frontier.Empty() {
		t.Fatal("interrupted runs exported no frontier")
	}
	aj, _ := json.Marshal(a.Frontier)
	bj, _ := json.Marshal(b.Frontier)
	if string(aj) != string(bj) {
		t.Fatalf("frontier export not deterministic:\n%s\n%s", aj, bj)
	}
}

// TestFrontierItemEncoding pins the persisted form of every frontier
// item shape. A checkpointed frontier outlives the binary that wrote
// it, so a renamed field must fail here rather than decode to a zero
// value: a zero footprint commutes with everything, and its sleeper
// would never wake. The prefix and switch-word forms are the ones
// earlier versions wrote.
func TestFrontierItemEncoding(t *testing.T) {
	for _, row := range []struct {
		name string
		item check.FrontierItem
		json string
	}{
		{"prefix", check.FrontierItem{Prefix: []int{0, 2}}, `{"prefix":[0,2]}`},
		{"sleep set", check.FrontierItem{Prefix: []int{1}, Sleep: []sched.SleepEntry{
			{Proc: 0, Processor: 1, Fp: mem.Footprint{Obj: 42, Cell: -1, Kind: mem.AccessCons}},
		}}, `{"prefix":[1],"sleep":[{"proc":0,"processor":1,"fp":{"obj":42,"cell":-1,"kind":4}}]}`},
		{"switch word", check.FrontierItem{Switches: []check.SwitchRec{{Decision: 3, Choice: 1}}, Budget: 2, MinIndex: 4},
			`{"switches":[{"d":3,"c":1}],"budget":2,"min_index":4}`},
		{"seed", check.FrontierItem{Seed: 120}, `{"seed":120}`},
	} {
		t.Run(row.name, func(t *testing.T) {
			b, err := json.Marshal(row.item)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != row.json {
				t.Fatalf("encoded %s, want %s", b, row.json)
			}
			var back check.FrontierItem
			if err := json.Unmarshal([]byte(row.json), &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, row.item) {
				t.Fatalf("decoded %+v, want %+v", back, row.item)
			}
		})
	}
}

// TestFrontierCompleteRunExportsNothing: a run that finishes leaves no
// frontier.
func TestFrontierCompleteRunExportsNothing(t *testing.T) {
	res := check.ExploreAll(twoProcBuilder(3, 1), check.Options{Parallelism: 1, ExportFrontier: true})
	if !res.Frontier.Empty() {
		t.Fatalf("complete exploration exported %d frontier items", len(res.Frontier.Items))
	}
}

// TestFrontierSeedWrongExplorer: feeding one explorer's frontier to
// another is a programming error and panics loudly instead of silently
// misreading the items.
func TestFrontierSeedWrongExplorer(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(*check.Frontier)
	}{
		{"budget to ExploreAll", func(f *check.Frontier) {
			check.ExploreAll(twoProcBuilder(1, 1), check.Options{SeedFrontier: f})
		}},
		{"budget to reduced ExploreAll", func(f *check.Frontier) {
			check.ExploreAll(twoProcBuilder(1, 1), check.Options{SeedFrontier: f, Reduction: check.ReductionFull})
		}},
		{"all to Fuzz", func(f *check.Frontier) {
			f.Explorer = "all"
			check.Fuzz(twoProcBuilder(1, 1), 3, check.Options{SeedFrontier: f})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on explorer mismatch")
				}
			}()
			row.run(&check.Frontier{Explorer: "budget"})
		})
	}
}

// TestRunDeadlineSkipsStuckRuns: under an immediately-expired deadline
// every run is cut off, retried once, then counted in TimedOutRuns —
// the exploration returns instead of hanging.
func TestRunDeadlineSkipsStuckRuns(t *testing.T) {
	// 2×200 statements at quantum 1: hundreds of decisions per run, so
	// the watchdog's default check interval is crossed many times.
	build := twoProcBuilder(200, 1)
	res := check.ExploreAll(build, check.Options{Parallelism: 1, RunDeadline: time.Nanosecond})
	if res.TimedOutRuns != 1 || res.Schedules != 1 {
		t.Fatalf("TimedOutRuns=%d Schedules=%d, want 1/1 (root run times out, subtree skipped)",
			res.TimedOutRuns, res.Schedules)
	}
	if !res.OK() {
		t.Fatalf("timed-out run recorded a violation: %+v", res.First())
	}
}

// TestRunDeadlineFuzz: each fuzz seed under an expired deadline is a
// counted timeout, and all seeds are still visited.
func TestRunDeadlineFuzz(t *testing.T) {
	build := twoProcBuilder(200, 1)
	res := check.Fuzz(build, 5, check.Options{Parallelism: 1, RunDeadline: time.Nanosecond})
	if res.TimedOutRuns != 5 || res.Schedules != 5 {
		t.Fatalf("TimedOutRuns=%d Schedules=%d, want 5/5", res.TimedOutRuns, res.Schedules)
	}
}

// TestRunDeadlineReduced: the reduced explorer honors the deadline too.
func TestRunDeadlineReduced(t *testing.T) {
	build := twoProcBuilder(200, 1)
	res := check.ExploreAll(build, check.Options{
		Parallelism: 1, RunDeadline: time.Nanosecond, Reduction: check.ReductionFull,
	})
	if res.TimedOutRuns == 0 {
		t.Fatal("reduced exploration ignored RunDeadline")
	}
}

// TestRunDeadlineGenerous: a deadline no run approaches changes
// nothing: same schedule count, zero timeouts.
func TestRunDeadlineGenerous(t *testing.T) {
	build := twoProcBuilder(3, 1)
	plain := check.ExploreAll(build, check.Options{Parallelism: 1})
	res := check.ExploreAll(build, check.Options{Parallelism: 1, RunDeadline: time.Hour})
	if res.TimedOutRuns != 0 {
		t.Fatalf("TimedOutRuns=%d under a generous deadline", res.TimedOutRuns)
	}
	if res.Schedules != plain.Schedules {
		t.Fatalf("deadline changed coverage: %d vs %d schedules", res.Schedules, plain.Schedules)
	}
}

// TestMemSoftLimitParksWorkers: an unreachable soft limit walks the
// degradation ladder — workers step down to one, then a single floor
// event — while the exploration still covers every schedule (parked
// workers' queues are stolen by the survivors).
func TestMemSoftLimitParksWorkers(t *testing.T) {
	build := twoProcBuilder(4, 1)
	baseline := check.ExploreAll(build, check.Options{Parallelism: 1})
	res := check.ExploreAll(build, check.Options{
		Parallelism:   4,
		MemSoftLimit:  1, // 1 byte: always over
		ProgressEvery: 1,
	})
	if res.Schedules != baseline.Schedules {
		t.Fatalf("degraded exploration covered %d schedules, baseline %d", res.Schedules, baseline.Schedules)
	}
	if len(res.Degradations) != 3 {
		t.Fatalf("degradations=%d, want 3 (4->2, 2->1, floor):\n%s",
			len(res.Degradations), strings.Join(res.Degradations, "\n"))
	}
	if !strings.Contains(res.Degradations[0], "stepped workers 4 -> 2") ||
		!strings.Contains(res.Degradations[1], "stepped workers 2 -> 1") ||
		!strings.Contains(res.Degradations[2], "minimum") {
		t.Fatalf("unexpected ladder:\n%s", strings.Join(res.Degradations, "\n"))
	}
}

// TestMemSoftLimitShedsCache: with a fingerprint cache active the first
// ladder step sheds it (and says so), before any workers are parked.
func TestMemSoftLimitShedsCache(t *testing.T) {
	res := check.ExploreBudget(racyCounterBuilder, 2, check.Options{
		Parallelism:   1,
		Reduction:     check.ReductionFingerprint,
		MemSoftLimit:  1,
		ProgressEvery: 1,
	})
	if len(res.Degradations) == 0 || !strings.Contains(res.Degradations[0], "shed fingerprint cache") {
		t.Fatalf("first degradation step should shed the cache:\n%s", strings.Join(res.Degradations, "\n"))
	}
	if res.OK() {
		t.Fatal("degraded exploration lost the planted violation")
	}
}

// TestNoMemLimitNoDegradations: the ladder is inert unless asked for.
func TestNoMemLimitNoDegradations(t *testing.T) {
	res := check.ExploreAll(twoProcBuilder(3, 1), check.Options{Parallelism: 2, ProgressEvery: 1})
	if len(res.Degradations) != 0 {
		t.Fatalf("unexpected degradations: %v", res.Degradations)
	}
}
