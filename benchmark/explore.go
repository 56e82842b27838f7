package main

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sched"
)

// leg is one explorer call of a pass.
type leg struct {
	name string
	meta artifact.Meta
	// explore runs the explorer with the given builder and options.
	explore func(b check.Builder, o check.Options) *check.Result
	opts    check.Options
	// want checks the result against the known answer for workers.
	want func(r *check.Result, workers int) error
	// outcome is the result's deterministic summary ("" = counts vary
	// with worker timing, only the verdict repeats).
	outcome func(r *check.Result) string
}

// explorerTally accumulates what the traced passes of an explorer
// workload measured.
type explorerTally struct {
	passes int
	acc    acc
	runs   int64 // executed runs from the explorers' own counts
	scheds int64
	fp     int64
	sleep  int64
	steals int64
}

// runLegs executes one pass of legs at the given worker count. In a
// traced pass the builders time Pick, the kernel gaps and Verify.
func (e *env) runLegs(legs []leg, workers int, traced bool, parent int64, tally *explorerTally) (float64, error) {
	var pt *passTally
	if traced {
		pt = &passTally{}
	}
	start := now()
	var work float64
	for i := range legs {
		l := &legs[i]
		var build check.Builder
		if traced {
			build = pt.builder(l.meta)
		} else {
			b, err := check.BuilderFor(l.meta)
			if err != nil {
				return 0, err
			}
			build = b
		}
		opts := l.opts
		opts.Parallelism = workers
		t0 := now()
		r := l.explore(build, opts)
		t1 := now()
		runs := int64(r.Schedules)
		if r.Reduction != nil {
			runs += int64(r.Reduction.FingerprintPrunedRuns + r.Reduction.SleepDeadlockRuns)
		}
		e.tr.add(0, l.name, "check", parent, 0, t0, t1, map[string]any{
			"schedules": r.Schedules, "runs": runs, "violations": r.ViolationsTotal, "steals": r.Steals, "workers": workers})
		work += float64(r.Schedules)
		if err := e.orc.check(l.name, l.want(r, workers)); err != nil {
			return 0, err
		}
		if l.outcome != nil {
			if err := e.orc.same(fmt.Sprintf("%s@%d", l.name, workers), l.outcome(r)); err != nil {
				return 0, err
			}
		}
		if tally != nil {
			tally.runs += runs
			tally.scheds += int64(r.Schedules)
			tally.steals += r.Steals
			if r.Reduction != nil {
				tally.fp += int64(r.Reduction.FingerprintPrunedRuns)
				tally.sleep += r.Reduction.SleepSkippedBranches
			}
		}
	}
	if traced {
		s := pt.sum()
		tally.passes++
		tally.acc.add(&s)
		// One summary span per layer per pass, each on its own track from
		// the pass's start; its duration is the layer's total time summed
		// over the workers.
		for i, l := range []struct {
			name         string
			count, total int64
		}{
			{"sched.pick", s.picks, s.pickNs},
			{"sim.run", s.runs, s.simNs},
			{"check.verify", s.verifies, s.verifyNs},
			{"check.driver", s.runs, s.driverNs},
		} {
			e.tr.add(0, l.name, "summary", parent, 100+i, start, start+l.total,
				map[string]any{"count": l.count, "total_ns": l.total})
		}
	}
	return work, nil
}

// runExplorer is the shared shape of the three explorer workloads: set
// up the builders, warm up, run timed passes, and in a traced run add
// one untraced pass at one worker (for the speedup) and derive the
// check-layer metrics.
func (e *env) runExplorer(name string, legs []leg, probe artifact.Meta) (*measured, error) {
	m := &measured{probeMeta: probe, workUnit: "schedules"}
	// Set-up is what a check pays before its first schedule: resolving
	// the builders and the probe build of each leg's system.
	keep, err := e.setUp(func() (func(), error) {
		for _, l := range legs {
			b, err := check.BuilderFor(l.meta)
			if err != nil {
				return nil, err
			}
			sys, verify := b(&sched.Script{})
			verify(sys.Run()) // the probe run's verdict is the explorers' to judge
			sys.Close()
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	defer keep()
	tally := &explorerTally{}
	err = e.passes(m, name, func(traced bool, parent int64) (verdict, error) {
		var t *explorerTally
		if traced {
			t = tally
		}
		work, err := e.runLegs(legs, e.workers, traced, parent, t)
		return verdict{work: work}, err
	})
	if err != nil {
		return nil, err
	}
	if !e.traced() {
		return m, nil
	}
	// The speedup pass: the same legs at one worker, untraced.
	one := &explorerTally{}
	t0 := now()
	if _, err := e.runLegs(legs, 1, false, 0, one); err != nil {
		return nil, err
	}
	oneSecs := float64(now()-t0) / 1e9
	m.layers, m.reconcile = e.checkLayers(m, tally, one, oneSecs)
	return m, nil
}

// checkLayers derives the sched, check and in-situ sim metrics of a
// traced explorer run, and the reconciliation of the per-run cost.
func (e *env) checkLayers(m *measured, t *explorerTally, one *explorerTally, oneSecs float64) (map[string]float64, map[string]float64) {
	a := t.acc
	passes := float64(max(t.passes, 1))
	runs := float64(max(a.runs, 1))
	picks := float64(max(a.picks, 1))
	// The wrapper's own cost is subtracted as measured, without clamping:
	// a call cheaper than the timer's noise can read slightly negative.
	pickNs := float64(a.pickNs)/picks - e.cal.in
	simNs := (float64(a.simNs) - e.cal.out*float64(a.picks)) / runs
	verifyNs := float64(a.verifyNs)/float64(max(a.verifies, 1)) - e.cal.in
	picksPerRun := float64(a.picks) / runs
	driverSeen := (float64(a.driverNs) - e.cal.out*float64(a.runs)) / runs

	// Untraced worker time per run: every worker is busy for the whole
	// pass, so a pass costs wall x workers of worker time.
	runsPerPass := float64(t.runs) / passes
	untracedNs := median(m.wall) * 1e9 * float64(e.workers) / runsPerPass
	tracedNs := median(m.tracedWall) * 1e9 * float64(e.workers) / runsPerPass
	parts := simNs + pickNs*picksPerRun + verifyNs*float64(a.verifies)/runs
	residual := untracedNs - parts

	ratePar := float64(t.runs) / passes / median(m.wall)
	rateOne := float64(one.runs) / oneSecs
	layers := map[string]float64{
		"sim.stmts_per_run":            float64(a.stmts) / runs,
		"sim.run_ns":                   simNs,
		"sched.pick_ns":                pickNs,
		"sched.picks_per_run":          picksPerRun,
		"check.runs":                   runsPerPass,
		"check.schedules":              float64(t.scheds) / passes,
		"check.useful_run_ratio":       float64(t.scheds) / float64(max(t.runs, 1)),
		"check.fp_pruned_runs":         float64(t.fp) / passes,
		"check.sleep_skipped_branches": float64(t.sleep) / passes,
		"check.verify_ns":              verifyNs,
		"check.ns_per_run":             untracedNs,
		"check.driver_ns_per_run":      residual,
		"check.steals_per_1k_runs":     float64(t.steals) / float64(max(t.runs, 1)) * 1000,
		"check.speedup":                ratePar / rateOne,
	}
	rec := map[string]float64{
		"untraced_ns_per_run":      untracedNs,
		"traced_ns_per_run":        tracedNs,
		"sim_ns_per_run":           simNs,
		"sched_ns_per_run":         pickNs * picksPerRun,
		"verify_ns_per_run":        verifyNs * float64(a.verifies) / runs,
		"driver_residual_ns":       residual,
		"driver_observed_ns":       driverSeen,
		"wrapper_in_ns":            e.cal.in,
		"wrapper_out_ns":           e.cal.out,
		"runs_seen_by_wrappers":    float64(a.runs) / passes,
		"runs_counted_by_explorer": runsPerPass,
		"runs_per_s_workers":       ratePar,
		"runs_per_s_one":           rateOne,
		"schedules_one_worker":     float64(one.scheds),
		"verdict_s_one_worker":     oneSecs,
	}
	return layers, rec
}

// runVerifyBudget explores the plain budget tree. Its runs are short, so
// the explorer's per-run overhead dominates: deques, steals, child
// generation, Reset and BudgetedSwitch.Pick. No reduction code runs.
func runVerifyBudget(e *env) (*measured, error) {
	s := e.size
	return e.runExplorer("verify-budget", []leg{budgetLeg("budget", s, check.ReductionNone)}, s.budgetMeta)
}

// budgetLeg explores the verify-budget tree, plain or reduced.
func budgetLeg(name string, s *size, red check.Reduction) leg {
	l := leg{
		name: name,
		meta: s.budgetMeta,
		explore: func(b check.Builder, o check.Options) *check.Result {
			return check.ExploreBudget(b, s.budget, o)
		},
		opts: check.Options{MaxSchedules: 1 << 22, Reduction: red},
	}
	if red == check.ReductionNone {
		l.want = func(r *check.Result, _ int) error { return wantBudget(r, s.budgetSchedules) }
		l.outcome = func(r *check.Result) string {
			return fmt.Sprintf("schedules=%d violations=%d", r.Schedules, r.ViolationsTotal)
		}
	} else {
		l.want = func(r *check.Result, w int) error { return wantReducedClean(r, w, s.budgetReduced1) }
	}
	return l
}

// runVerifyReduced explores under full reduction: a violating tree (Q =
// 0, below Theorem 1's Q >= 8) and then the verify-budget tree, so the
// reduction's net effect on the same tree reads off against
// verify-budget. Sleep sets, the fingerprint cache and Reduced
// snapshots do most of the work.
func runVerifyReduced(e *env) (*measured, error) {
	s := e.size
	legs := []leg{
		{
			name: "reduced-all",
			meta: s.reducedMeta,
			explore: func(b check.Builder, o check.Options) *check.Result {
				return check.ExploreAll(b, o)
			},
			opts: check.Options{MaxSchedules: 1 << 22, Reduction: check.ReductionFull},
			want: func(r *check.Result, w int) error { return wantReducedViolation(r, w, s.reducedAll1) },
		},
		budgetLeg("reduced-budget", s, check.ReductionFull),
	}
	return e.runExplorer("verify-reduced", legs, s.budgetMeta)
}

// The measured pair: Fig. 3 consensus in its correct three-process
// configuration, and the lock-based counter in the starvation-prone one
// (a starved run goes on to the 2000-statement limit).
var (
	waitFreeMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 8}
	lockedMeta   = artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000}
)

// runMeasureProgress measures per-invocation statement counts under the
// seeded uniform model (the ROADMAP's replays/s figure): the wait-free
// consensus with 8-statement invocations, and the lock-based control
// whose starving runs go on for up to 2000 statements, so the
// per-statement kernel cost shows.
func runMeasureProgress(e *env) (*measured, error) {
	s := e.size
	spec, err := sched.ParseModelSpec(fmt.Sprintf("uniform:seed=%d", e.seed))
	if err != nil {
		return nil, err
	}
	measure := func(name string, meta artifact.Meta, replays int, want func(*check.Result) error) leg {
		return leg{
			name: name,
			meta: meta,
			explore: func(b check.Builder, o check.Options) *check.Result {
				return check.Fuzz(b, replays, o)
			},
			opts:    check.Options{MaxSchedules: replays, SchedModel: spec, Measure: true},
			want:    func(r *check.Result, _ int) error { return want(r) },
			outcome: progressOutcome,
		}
	}
	legs := []leg{
		measure("measure-waitfree", waitFreeMeta, s.waitFreeReplays, wantWaitFree),
		measure("measure-locked", lockedMeta, s.lockedReplays, wantStarved),
	}
	m, err := e.runExplorer("measure-progress", legs, lockedMeta)
	if m != nil {
		m.workUnit = "replays"
	}
	return m, err
}
