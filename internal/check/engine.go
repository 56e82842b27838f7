package check

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// schedKey canonically orders schedules: lexicographic over the
// elements, with a proper prefix ordered before its extensions. For
// ExploreAll the key is the decision-vector prefix (work prefixes end
// in a non-zero digit, so this matches zero-padded vector order); for
// ExploreBudget it is the flattened (index, choice) switch word; for
// Fuzz it is the seed.
type schedKey []int64

func keyLess(a, b schedKey) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

type keyedViolation struct {
	key schedKey
	v   Violation
}

// collector aggregates run outcomes across workers: it enforces
// MaxSchedules via atomic slot claims, merges violations in canonical
// schedule order, drives cooperative cancellation for StopAtFirst, and
// emits Progress snapshots.
type collector struct {
	opts        Options
	ctx         context.Context
	maxSched    int64
	maxViol     int
	claimed     atomic.Int64 // schedule slots claimed (bounded by maxSched)
	counted     atomic.Int64 // schedules executed and counted
	violTotal   atomic.Int64
	aliased     atomic.Int64
	stepLimited atomic.Int64
	steals      atomic.Int64 // work items taken from another worker's deque

	// Reduction tallies (zero when Options.Reduction is ReductionNone).
	redSleepPruned  atomic.Int64
	redFPPruned     atomic.Int64
	redSleepSkipped atomic.Int64
	timedOut        atomic.Int64 // runs skipped by the RunDeadline watchdog
	truncated       atomic.Bool
	interrupted     atomic.Bool
	stop            atomic.Bool

	// Degradation-ladder state (Options.MemSoftLimit); see frontier.go.
	memSoft      uint64
	allowed      atomic.Int32 // workers allowed to claim new work
	cache        *fpCache     // sheddable fingerprint cache, may be nil
	cacheShed    bool         // under mu
	degradeFloor bool         // under mu
	degradations []string     // under mu

	mu      sync.Mutex
	viols   []keyedViolation // sorted by key, capped at maxViol
	fronts  []keyedFrontier  // exported frontier items (ExportFrontier)
	measure *measureAcc      // merged measurement histogram (Options.Measure)
	runners []*runner        // every worker's runner (addRunner)

	start     time.Time
	progEvery int64
}

func newCollector(opts Options) *collector {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	c := &collector{
		opts:     opts,
		ctx:      ctx,
		maxSched: int64(opts.maxSchedules()),
		maxViol:  opts.ViolationCap(),
		memSoft:  opts.MemSoftLimit,
		//repro:allow walltime start feeds only Result.Elapsed and progress reporting, never replayed output
		start:     time.Now(),
		progEvery: opts.progressEvery(),
	}
	c.allowed.Store(int32(opts.parallelism()))
	return c
}

// stopped reports whether the exploration should stop claiming work,
// polling Options.Context for cancellation.
func (c *collector) stopped() bool {
	if c.stop.Load() {
		return true
	}
	if c.ctx.Err() != nil {
		c.interrupted.Store(true)
		c.stop.Store(true)
		return true
	}
	return false
}

// claim reserves one schedule slot; on failure the exploration is
// truncated and cancelled.
func (c *collector) claim() bool {
	if c.stopped() {
		return false
	}
	if c.claimed.Add(1) > c.maxSched {
		c.claimed.Add(-1)
		c.truncated.Store(true)
		c.stop.Store(true)
		return false
	}
	return true
}

// unclaim releases a slot whose run turned out to be a clamped alias of
// another schedule.
func (c *collector) unclaim() {
	c.claimed.Add(-1)
	c.aliased.Add(1)
}

// release frees a slot claimed by a run a reduction pruned: a covered
// partial replay is neither a schedule nor an alias, so it never counts
// against MaxSchedules.
func (c *collector) release() {
	c.claimed.Add(-1)
}

// fingerprintCache creates the exploration's fingerprint cache when
// Options.Reduction prunes by fingerprint, and returns nil otherwise.
// The degradation ladder may shed it.
func (c *collector) fingerprintCache() *fpCache {
	if !c.opts.Reduction.fingerprints() {
		return nil
	}
	c.cache = newFPCache(fpCacheEntries, c.opts.parallelism())
	return c.cache
}

// reductionStats assembles the ReductionStats of a finished reduced
// exploration (the cache is nil in sleep-set-only mode).
func (c *collector) reductionStats() *ReductionStats {
	rs := &ReductionStats{
		Mode:                  c.opts.Reduction.String(),
		SleepDeadlockRuns:     int(c.redSleepPruned.Load()),
		SleepSkippedBranches:  c.redSleepSkipped.Load(),
		FingerprintPrunedRuns: int(c.redFPPruned.Load()),
	}
	if c.cache != nil {
		rs.CacheHits, rs.CacheEvictions, rs.CacheEntries = c.cache.stats()
	}
	return rs
}

// count records one executed schedule, polls memory pressure, and
// emits progress when due.
func (c *collector) count() {
	n := c.counted.Add(1)
	if n%c.progEvery == 0 {
		c.memPressure()
	}
	if c.opts.Progress != nil && n%c.progEvery == 0 {
		//repro:allow walltime elapsed feeds only ProgressInfo/Result.Elapsed diagnostics, never replayed output
		elapsed := time.Since(c.start)
		info := ProgressInfo{Schedules: n, Violations: c.violTotal.Load(), Elapsed: elapsed}
		if s := elapsed.Seconds(); s > 0 {
			info.SchedulesPerSec = float64(n) / s
		}
		c.mu.Lock()
		c.opts.Progress(info)
		c.mu.Unlock()
	}
}

// violation merges one violation into the canonically ordered, capped
// list and triggers StopAtFirst cancellation. schedule names the run,
// and decisions, if non-nil, returns its canonical decision vector
// (ownership passes to the collector); both are called only for a
// violation the list takes in, so the runs the cap drops are never
// formatted.
func (c *collector) violation(key schedKey, err error, schedule func() string, decisions func() []int) {
	c.violTotal.Add(1)
	c.mu.Lock()
	i := sort.Search(len(c.viols), func(i int) bool { return keyLess(key, c.viols[i].key) })
	if i < c.maxViol {
		v := Violation{Schedule: schedule(), Err: err}
		if decisions != nil {
			v.Decisions = decisions()
		}
		c.viols = append(c.viols, keyedViolation{})
		copy(c.viols[i+1:], c.viols[i:])
		c.viols[i] = keyedViolation{key: key, v: v}
		if len(c.viols) > c.maxViol {
			c.viols = c.viols[:c.maxViol]
		}
	}
	c.mu.Unlock()
	if c.opts.StopAtFirst {
		c.stop.Store(true)
	}
}

// canonDecisions copies a taken decision vector into canonical script
// form: trailing zeros are trimmed, since past the script's end a replay
// picks candidate 0 anyway. The result is never nil — an all-zeros run
// canonicalizes to the empty (but present) vector, distinguishing it
// from a run whose decisions could not be captured.
func canonDecisions(taken []int) []int {
	n := len(taken)
	for n > 0 && taken[n-1] == 0 {
		n--
	}
	out := make([]int, n)
	copy(out, taken[:n])
	return out
}

// outcome runs the builder's verifier and the collector-level property
// checks over one completed run, merging everything into a single
// violation error (nil for a clean run). Step-limit aborts are tallied
// in Result.StepLimited and suppressed as violations when the verifier
// merely echoes them; a verifier error distinct from the abort — or a
// WaitFreeBound hit on the aborted run — still counts.
func (c *collector) outcome(sys *sim.System, verify Verify, runErr error) error {
	limited := errors.Is(runErr, sim.ErrStepLimit)
	if limited {
		c.stepLimited.Add(1)
	}
	verr := verify(runErr)
	if verr != nil && limited && errors.Is(verr, sim.ErrStepLimit) {
		verr = nil
	}
	return errors.Join(verr, c.waitFree(sys))
}

// waitFree enforces Options.WaitFreeBound on one completed run: every
// live (non-crashed) process must have executed at most the bound of
// its own statements within any single invocation, finished or not.
func (c *collector) waitFree(sys *sim.System) error {
	b := c.opts.WaitFreeBound
	if b <= 0 {
		return nil
	}
	for _, p := range sys.Processes() {
		if p.Crashed() {
			continue
		}
		if n := p.WorstInvStmts(); n > b {
			return fmt.Errorf("check: wait-freedom violated: %s executed %d of its own statements in one invocation (bound %d)",
				p.Name(), n, b)
		}
	}
	return nil
}

// protectedRun invokes f, converting a panic anywhere in the builder,
// the run, or the verifier into a violation error so one bad schedule
// cannot kill the whole exploration. describe names the run for the
// error text; it is invoked only on panic, which keeps schedule-string
// formatting off the hot path.
func protectedRun(describe func() string, f func() error) (verr error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			verr = fmt.Errorf("check: panic on schedule %s: %v\n%s", describe(), r, debug.Stack())
		}
	}()
	return f(), false
}

// result assembles the Result of a finished exploration by explorer
// ("all", "budget" or "fuzz"; budget is ExploreBudget's root budget),
// with the exported frontier when one is left.
func (c *collector) result(explorer string, budget int) *Result {
	res := &Result{
		Schedules:       int(c.counted.Load()),
		ViolationsTotal: int(c.violTotal.Load()),
		Truncated:       c.truncated.Load(),
		Aliased:         int(c.aliased.Load()),
		StepLimited:     int(c.stepLimited.Load()),
		Steals:          c.steals.Load(),
		Interrupted:     c.interrupted.Load(),
		TimedOutRuns:    int(c.timedOut.Load()),
	}
	c.mu.Lock()
	res.Degradations = c.degradations
	if len(c.fronts) > 0 {
		sort.Slice(c.fronts, func(i, j int) bool { return keyLess(c.fronts[i].key, c.fronts[j].key) })
		res.Frontier = &Frontier{Explorer: explorer, Budget: budget, Schedules: res.Schedules}
		for _, kf := range c.fronts {
			res.Frontier.Items = append(res.Frontier.Items, kf.item)
		}
	}
	if c.opts.Measure {
		m := c.measure
		if m == nil {
			m = newMeasureAcc() // measured exploration with zero runs
		}
		res.Progress = m.stats()
	}
	c.mu.Unlock()
	viols := c.viols
	if c.opts.StopAtFirst && len(viols) > 1 {
		viols = viols[:1]
	}
	for _, kv := range viols {
		res.Violations = append(res.Violations, kv.v)
	}
	c.forensics(res)
	return res
}

// chooserSlot lets a pooled system swap per-schedule choosers without
// rebuilding: the probe build wires the system's Config.Chooser to the
// slot (possibly wrapped, e.g. by a crash injector), and the worker
// points the slot at each schedule's chooser before each rerun. The
// slot implements sim.Crasher by delegation and reports via
// CrashesArmed whether the inner chooser can actually inject faults, so
// the kernel skips the per-step Crashes call for ordinary choosers (an
// armed one is polled in place and costs a coroutine switch only at a
// step at which it names victims). It forwards ReadsSince too, so the
// kernel keeps the access log only for a chooser that reads it.
type chooserSlot struct {
	ch      sim.Chooser
	crasher sim.Crasher
}

func (s *chooserSlot) set(ch sim.Chooser) {
	s.ch = ch
	s.crasher, _ = ch.(sim.Crasher)
}

// Pick implements sim.Chooser.
func (s *chooserSlot) Pick(d sim.Decision) int { return s.ch.Pick(d) }

// ReadsSince reports whether the current inner chooser reads
// sim.Decision.Since.
func (s *chooserSlot) ReadsSince() bool { return sim.ReadsSince(s.ch) }

// Crashes implements sim.Crasher.
func (s *chooserSlot) Crashes(d sim.Decision) []*sim.Process {
	if s.crasher == nil {
		return nil
	}
	return s.crasher.Crashes(d)
}

// CrashesArmed reports whether the current inner chooser can inject
// faults.
func (s *chooserSlot) CrashesArmed() bool { return sim.CrashesArmed(s.ch) }

// runner executes one schedule after another for a single worker,
// pooling the built system across replays when the builder constructs
// a reusable one (a system with sim.System.OnReset hooks registered —
// every registered artifact workload). The first run probes: the
// system is built once around a chooserSlot; if it reports Reusable,
// every later run swaps the slot to that schedule's chooser and Resets
// the system instead of rebuilding, which eliminates all steady-state
// allocation (shared objects, register files, processes, coroutine
// stacks). Builders that register no reset hooks keep the historical
// build-per-run behaviour — and its build-count semantics, on which
// alias detection for non-reentrant builders relies.
//
// sys is the last system built: the pooled one, or the latest
// build-per-run one, which the runner closes when it builds the next
// (its caller has judged it by then) or in close.
//
// fingerprints keeps the fingerprint upkeep on the systems the runner
// builds. Only an exploration that prunes by fingerprint reads it, so
// every other runner declines it (sim.System.SkipFingerprint).
type runner struct {
	build        Builder
	slot         chooserSlot
	sys          *sim.System
	verify       Verify
	probed       bool
	pooled       bool
	fingerprints bool
}

func newRunner(build Builder) *runner { return &runner{build: build} }

// run executes one schedule under ch on the pooled or a fresh system.
func (r *runner) run(ch sim.Chooser) (*sim.System, Verify, error) {
	if r.pooled {
		r.slot.set(ch)
		r.sys.Reset()
		return r.sys, r.verify, r.sys.Run()
	}
	r.close()
	if !r.probed {
		r.probed = true
		r.slot.set(ch)
		r.sys, r.verify = r.build(&r.slot)
		r.pooled = r.sys.Reusable()
	} else {
		r.sys, r.verify = r.build(ch)
	}
	if !r.fingerprints {
		r.sys.SkipFingerprint()
	}
	return r.sys, r.verify, r.sys.Run()
}

// close tears down the runner's last system, if any.
func (r *runner) close() {
	if r.sys != nil {
		r.sys.Close()
		r.sys = nil
	}
}

// invalidate discards the pooled system after a panic left it in an
// unknown state; the next run re-probes from a fresh build.
func (r *runner) invalidate() {
	r.close()
	r.probed, r.pooled, r.verify = false, false, nil
}

// addRunner returns a worker's runner and registers it with the
// collector, so the explorer closes every system its workers built once
// they have all returned (closeRunners). The runner keeps the
// fingerprint upkeep only when the exploration prunes by fingerprint.
func (c *collector) addRunner(build Builder) *runner {
	r := newRunner(build)
	r.fingerprints = c.opts.Reduction.fingerprints()
	c.mu.Lock()
	c.runners = append(c.runners, r)
	c.mu.Unlock()
	return r
}

// closeRunners closes the systems of every registered runner. It runs
// after the workers have returned, so nothing else touches them.
func (c *collector) closeRunners() {
	for _, r := range c.runners {
		r.close()
	}
}

// strategy is what one explorer adds to the driver. A strategy belongs
// to one worker and owns that worker's chooser, so the driver runs any
// explorer's work items without knowing which explorer it serves. The
// tree strategies walk a schedule tree on the explore engine: prefix
// (plain ExploreAll, sched.Script), switch word (ExploreBudget,
// sched.BudgetedSwitch) and sleep set (reduced ExploreAll,
// sched.Reduced). Fuzz runs the seed strategy.
type strategy[T any] interface {
	// reset points the chooser at item's schedule and returns it, ready
	// for one run attempt.
	reset(item *T) sim.Chooser
	// aliased reports whether the run just made replayed a schedule other
	// than item's. Only a builder that is not a deterministic function of
	// the decision sequence can make a replay clamp or fall short this
	// way; the run is skipped rather than counted twice, and the aliased
	// subtree is not entered.
	aliased(item *T) bool
	// pruned returns the ReductionStats tally of a run that a reduction
	// cut short as a covered partial replay, or nil for a whole run.
	pruned() *atomic.Int64
	// key is item's canonical schedule key, which orders violations and
	// frontier items.
	key(item *T) schedKey
	// describe names item's schedule in violation text.
	describe(item *T) string
	// decisions is the canonical decision vector of the run just made, or
	// nil when it was not captured.
	decisions(item *T) []int
	// children pushes the subtrees below the run just made in descending
	// canonical order: pops come LIFO off the bottom of the frontier, so
	// the smallest subtree is explored first and one worker reproduces
	// the sequential enumeration order exactly.
	children(item *T, push func(*T))
	// frontier is item in serializable form (Options.ExportFrontier).
	frontier(item *T) FrontierItem
}

// driver runs one worker's work items; every explorer makes its runs
// here.
type driver[T any] struct {
	c   *collector
	r   *runner
	dog *watchdog
	s   strategy[T]
	acc *measureAcc // Options.Measure accumulator (Fuzz only), else nil
}

func newDriver[T any](c *collector, build Builder, s strategy[T]) *driver[T] {
	return &driver[T]{c: c, r: c.addRunner(build), dog: newWatchdog(c.opts), s: s}
}

// process claims a MaxSchedules slot for item and runs it. An item whose
// claim fails was never entered, so it goes to the frontier.
func (d *driver[T]) process(item *T, push func(*T)) {
	if !d.c.claim() {
		d.export(item)
		return
	}
	d.run(item, push)
}

// export records an item that was never run in the frontier when
// Options.ExportFrontier is set, and drops it otherwise.
func (d *driver[T]) export(item *T) {
	if d.c.opts.ExportFrontier {
		d.c.exportItem(d.s.key(item), d.s.frontier(item))
	}
}

// run executes a claimed item's schedule and pushes its children. A run
// that times out is retried once. No children are pushed below a panic,
// since the run's fan-out record is then unreliable (the violation
// records the abandoned schedule), nor after a stop with no frontier to
// take them.
func (d *driver[T]) run(item *T, push func(*T)) {
	c, s := d.c, d.s
	describe := func() string { return s.describe(item) }
	var verr error
	var panicked bool
	for attempt := 0; ; attempt++ {
		ch := d.dog.arm(s.reset(item))
		verr, panicked = protectedRun(describe, func() error {
			sys, verify, runErr := d.r.run(ch)
			if d.dog.fired() || s.pruned() != nil || s.aliased(item) {
				return nil // not an outcome; handled below
			}
			out := c.outcome(sys, verify, runErr)
			if d.acc != nil {
				d.acc.observe(sys)
			}
			return out
		})
		if panicked || !d.dog.fired() || attempt > 0 {
			break
		}
	}
	switch {
	case panicked:
		d.r.invalidate()
	case d.dog.fired():
		// Timed out twice: skip the schedule and its subtree rather than
		// hang; the run still occupies its MaxSchedules slot.
		c.timedOut.Add(1)
		c.count()
		return
	case s.aliased(item):
		c.unclaim()
		return
	}
	if verr != nil {
		var dec func() []int
		if !panicked {
			dec = func() []int { return s.decisions(item) }
		}
		c.violation(s.key(item), verr, describe, dec)
	}
	if tally := s.pruned(); tally != nil && !panicked {
		// A pruned run is a covered partial replay, not a schedule: it
		// frees its slot, and the decisions it completed still seed
		// children.
		c.release()
		tally.Add(1)
	} else {
		c.count()
	}
	if panicked || (c.stopped() && !c.opts.ExportFrontier) {
		return
	}
	s.children(item, push)
}
