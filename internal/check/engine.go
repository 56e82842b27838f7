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

	"repro/internal/sched"
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
		maxViol:  opts.maxViolations(),
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

// reductionStats assembles the ReductionStats for a finished reduced
// exploration (cache may be nil for sleep-set-only mode).
func (c *collector) reductionStats(mode Reduction, cache *fpCache) *ReductionStats {
	rs := &ReductionStats{
		Mode:                  mode.String(),
		SleepDeadlockRuns:     int(c.redSleepPruned.Load()),
		SleepSkippedBranches:  c.redSleepSkipped.Load(),
		FingerprintPrunedRuns: int(c.redFPPruned.Load()),
	}
	if cache != nil {
		rs.CacheHits, rs.CacheEvictions, rs.CacheEntries = cache.stats()
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
// list and triggers StopAtFirst cancellation. decisions, if non-nil, is
// the run's canonical decision vector (ownership passes to the
// collector).
func (c *collector) violation(key schedKey, schedule string, err error, decisions []int) {
	c.violTotal.Add(1)
	c.mu.Lock()
	i := sort.Search(len(c.viols), func(i int) bool { return keyLess(key, c.viols[i].key) })
	if i < c.maxViol {
		c.viols = append(c.viols, keyedViolation{})
		copy(c.viols[i+1:], c.viols[i:])
		c.viols[i] = keyedViolation{key: key, v: Violation{Schedule: schedule, Err: err, Decisions: decisions}}
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

func (c *collector) result() *Result {
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
// the kernel skips the per-step Crashes call for ordinary choosers.
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

// Crashes implements sim.Crasher.
func (s *chooserSlot) Crashes(d sim.Decision) []*sim.Process {
	if s.crasher == nil {
		return nil
	}
	return s.crasher.Crashes(d)
}

// CrashesArmed reports whether the current inner chooser can inject
// faults (see sim.Config.Chooser's crash-arming protocol).
func (s *chooserSlot) CrashesArmed() bool {
	if s.crasher == nil {
		return false
	}
	if ca, ok := s.crasher.(interface{ CrashesArmed() bool }); ok {
		return ca.CrashesArmed()
	}
	return true
}

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
type runner struct {
	build  Builder
	slot   chooserSlot
	sys    *sim.System
	verify Verify
	probed bool
	pooled bool
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
// they have all returned (closeRunners).
func (c *collector) addRunner(build Builder) *runner {
	r := newRunner(build)
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

// prefixItem identifies one plain-ExploreAll subtree: the schedule at
// its root is prefix followed by implicit zeros.
type prefixItem struct {
	prefix []int
}

// ExploreAll exhaustively enumerates the full schedule tree (every
// choice at every decision point) up to opts.MaxSchedules schedules,
// fanning disjoint decision-vector subtrees out over
// opts.Parallelism workers.
func ExploreAll(build Builder, opts Options) *Result {
	if opts.Reduction != ReductionNone {
		return exploreAllReduced(build, opts)
	}
	checkSeed(opts.SeedFrontier, "all")
	c := newCollector(opts)
	var export func(*prefixItem)
	if opts.ExportFrontier {
		export = c.exportAll
	}
	explore(c, seedItemsAll(opts.SeedFrontier), opts.parallelism(), export,
		func(int) func(*prefixItem, func(*prefixItem)) {
			w := &allWorker{c: c, r: c.addRunner(build), script: &sched.Script{},
				dog: newWatchdog(opts), export: export}
			return w.process
		})
	res := c.result()
	if opts.ExportFrontier {
		if f := c.frontierResult("all", 0); !f.Empty() {
			res.Frontier = f
		}
	}
	return res
}

// allWorker is one plain-ExploreAll worker's pooled state: the system
// runner, the replay script, and a scratch decision buffer, all reused
// across every schedule the worker executes.
type allWorker struct {
	c      *collector
	r      *runner
	script *sched.Script
	dog    *watchdog
	export func(*prefixItem)
	taken  []int
}

// process executes the schedule at the root of the subtree identified
// by item.prefix (prefix followed by implicit zeros) and pushes the
// subtree's immediate sub-subtrees: every single-point deviation at or
// after len(prefix). Together with this run those exactly cover the
// subtree, so each schedule is executed once.
func (w *allWorker) process(item *prefixItem, push func(*prefixItem)) {
	c := w.c
	if !c.claim() {
		// The subtree was never entered; with ExportFrontier it moves to
		// the frontier instead of being dropped.
		if w.export != nil {
			w.export(item)
		}
		return
	}
	prefix := item.prefix
	script := w.script
	describe := func() string { return fmt.Sprintf("decisions=%v", prefix) }
	var verr error
	var panicked bool
	for attempt := 0; ; attempt++ {
		script.Reset(prefix)
		ch := w.dog.arm(script)
		verr, panicked = protectedRun(describe, func() error {
			sys, verify, runErr := w.r.run(ch)
			if w.dog.fired() {
				return nil // timed out; handled below
			}
			if script.Clamped || len(script.Fanouts) < len(prefix) {
				return nil // aliased; detected below from the script state
			}
			return c.outcome(sys, verify, runErr)
		})
		if !panicked && w.dog.fired() && attempt == 0 {
			continue // retry a timed-out run once
		}
		break
	}
	if panicked {
		w.r.invalidate()
	}
	if !panicked && w.dog.fired() {
		// Timed out twice: skip the schedule (and its subtree) rather
		// than hang; the run still occupies its MaxSchedules slot.
		c.timedOut.Add(1)
		c.count()
		return
	}
	if !panicked && (script.Clamped || len(script.Fanouts) < len(prefix)) {
		// The replay aliased a different decision vector (possible only
		// for builders that are not deterministic functions of the
		// decision sequence): skip it rather than double-count, and do
		// not descend into the aliased subtree.
		c.unclaim()
		return
	}
	if verr != nil {
		key := make(schedKey, len(prefix))
		for i, d := range prefix {
			key[i] = int64(d)
		}
		var dec []int
		if !panicked {
			dec = canonDecisions(prefix)
		}
		c.violation(key, describe(), verr, dec)
	}
	c.count()
	// After a panic the script's fan-out record is unreliable, so the
	// subtree below this schedule is not descended into; the violation
	// records the abandoned prefix. When exporting a frontier, a stop
	// must not drop this run's children: they are pushed anyway, and the
	// worker's drain pass moves them to the frontier.
	if panicked || (c.stopped() && w.export == nil) {
		return
	}
	taken := append(w.taken[:0], prefix...)
	for len(taken) < len(script.Fanouts) {
		taken = append(taken, 0)
	}
	w.taken = taken
	// Children in descending canonical order: pops come LIFO off the
	// bottom of the frontier, so the lexicographically smallest subtree
	// is popped first and a single worker reproduces the sequential
	// enumeration order exactly. Children are slab-allocated — exact
	// capacities sized by a counting pass, so the fill appends never
	// reallocate, item pointers and prefix subslices stay stable, and
	// the whole frontier of one schedule costs two heap objects. The
	// three-index subslicing keeps each child's prefix detached from
	// its neighbors' (appends force a copy).
	children, prefixInts := 0, 0
	for i := len(prefix); i < len(taken); i++ {
		if n := script.Fanouts[i] - 1; n > 0 {
			children += n
			prefixInts += n * (i + 1)
		}
	}
	if children == 0 {
		return
	}
	items := make([]prefixItem, 0, children)
	prefixSlab := make([]int, 0, prefixInts)
	for i := len(prefix); i < len(taken); i++ {
		for choice := script.Fanouts[i] - 1; choice >= 1; choice-- {
			ps := len(prefixSlab)
			prefixSlab = append(prefixSlab, taken[:i]...)
			prefixSlab = append(prefixSlab, choice)
			items = append(items, prefixItem{prefix: prefixSlab[ps:len(prefixSlab):len(prefixSlab)]})
			push(&items[len(items)-1])
		}
	}
}

// switchPoint is one directed deviation of an ExploreBudget schedule.
type switchPoint struct {
	d      int64
	choice int
}

// budgetItem identifies one ExploreBudget subtree: the deviations
// applied so far (sorted by decision index), the remaining deviation
// budget, and the first decision index at which further deviations may
// be placed (keeping every ≤budget-deviation schedule covered exactly
// once).
type budgetItem struct {
	switches []switchPoint
	budget   int
	minIndex int64
}

// ExploreBudget exhaustively enumerates schedules that deviate from the
// default continue-current-process schedule in at most budget decision
// points, fanning disjoint deviation subtrees out over
// opts.Parallelism workers. Deviation points are discovered lazily and
// placed in increasing order, so every ≤budget-deviation schedule is
// covered exactly once.
func ExploreBudget(build Builder, budget int, opts Options) *Result {
	checkSeed(opts.SeedFrontier, "budget")
	c := newCollector(opts)
	var cache *fpCache
	if opts.Reduction.fingerprints() {
		cache = newFPCache(opts.reductionCache())
		cache.noLock = opts.parallelism() == 1
		c.cache = cache
	}
	var export func(*budgetItem)
	if opts.ExportFrontier && opts.Reduction == ReductionNone {
		export = c.exportBudget
	}
	explore(c, seedItemsBudget(opts.SeedFrontier, budget), opts.parallelism(), export,
		func(worker int) func(*budgetItem, func(*budgetItem)) {
			w := &budgetWorker{c: c, r: c.addRunner(build), ch: &sched.BudgetedSwitch{},
				dog: newWatchdog(opts), export: export}
			if cache != nil {
				// The chooser consults the cache only past the last directed
				// switch, where the run is a pure default continuation from a
				// state the fingerprint fully identifies (plus the chooser's
				// current-process steering, folded in via PruneInfo.Extra).
				w.ch.Prune = cache.pruneFunc(worker)
			}
			return w.process
		})
	res := c.result()
	if opts.Reduction != ReductionNone {
		res.Reduction = c.reductionStats(opts.Reduction, cache)
	}
	if export != nil {
		if f := c.frontierResult("budget", budget); !f.Empty() {
			res.Frontier = f
		}
	}
	return res
}

// budgetWorker is one ExploreBudget worker's pooled state.
type budgetWorker struct {
	c      *collector
	r      *runner
	ch     *sched.BudgetedSwitch
	dog    *watchdog
	export func(*budgetItem)
}

func (w *budgetWorker) process(item *budgetItem, push func(*budgetItem)) {
	c := w.c
	if !c.claim() {
		if w.export != nil {
			w.export(item)
		}
		return
	}
	ch := w.ch
	describe := func() string { return fmt.Sprintf("switches=%v", ch.SwitchAt) }
	aliased := func() bool {
		return ch.Clamped || (len(item.switches) > 0 && item.switches[len(item.switches)-1].d >= ch.Decision)
	}
	var verr error
	var panicked bool
	for attempt := 0; ; attempt++ {
		ch.Reset(item.budget)
		for _, sw := range item.switches {
			ch.SwitchAt[sw.d] = sw.choice
		}
		wch := w.dog.arm(ch)
		verr, panicked = protectedRun(describe, func() error {
			sys, verify, runErr := w.r.run(wch)
			if w.dog.fired() {
				return nil // timed out; handled below
			}
			if errors.Is(runErr, sim.ErrPickAbort) {
				return nil // pruned, not an outcome
			}
			if aliased() {
				return nil
			}
			return c.outcome(sys, verify, runErr)
		})
		if !panicked && w.dog.fired() && attempt == 0 {
			continue // retry a timed-out run once
		}
		break
	}
	if panicked {
		w.r.invalidate()
	}
	if !panicked && w.dog.fired() {
		c.timedOut.Add(1)
		c.count()
		return
	}
	if !panicked && aliased() {
		// A clamped or never-reached switch means the replay aliased a
		// schedule with a different switch word (non-reentrant builder);
		// skip it rather than double-count (see allWorker.process). A
		// pruned run cannot look aliased: pruning fires only past the
		// last directed switch, so every switch was reached.
		c.unclaim()
		return
	}
	if verr != nil {
		key := make(schedKey, 0, 2*len(item.switches))
		for _, sw := range item.switches {
			key = append(key, sw.d, int64(sw.choice))
		}
		var dec []int
		if !panicked {
			dec = canonDecisions(ch.Taken)
		}
		c.violation(key, describe(), verr, dec)
	}
	if ch.Pruned && !panicked {
		// A pruned run is a covered partial replay, not a schedule (see
		// redWorker.process); its completed decisions still seed
		// children below, and deviations at or after the prune point are
		// covered by the cached visitor.
		c.release()
		c.redFPPruned.Add(1)
	} else {
		c.count()
	}
	// See allWorker.process: no descent below a panicked schedule; a
	// stop with ExportFrontier still pushes children so the drain pass
	// moves them to the frontier.
	if panicked || item.budget == 0 || (c.stopped() && w.export == nil) {
		return
	}
	taken := ch.Taken
	// Children in descending canonical order (see allWorker.process).
	// The loop runs over decisions with a recorded choice — for a pruned
	// run that excludes the abort decision, whose deviations the cached
	// visitor covers.
	for d := int64(len(taken)) - 1; d >= item.minIndex; d-- {
		for choice := ch.Fanouts[d] - 1; choice >= 0; choice-- {
			if choice == taken[d] {
				continue
			}
			push(&budgetItem{
				switches: append(item.switches[:len(item.switches):len(item.switches)], switchPoint{d: d, choice: choice}),
				budget:   item.budget - 1,
				minIndex: d + 1,
			})
		}
	}
}

// Fuzz runs nSeeds seeded pseudo-random schedules, sharding the seed
// range over opts.Parallelism workers. Options.SchedModel swaps the
// schedule source for a registered scheduler model; Options.Measure
// additionally accumulates the empirical progress-bound report into
// Result.Progress.
func Fuzz(build Builder, nSeeds int, opts Options) *Result {
	if opts.SchedModel != nil {
		if err := opts.SchedModel.Validate(); err != nil {
			panic(err) // builder misuse: specs from user input are validated upstream
		}
	}
	c := newCollector(opts)
	n := int64(nSeeds)
	if n > c.maxSched {
		n = c.maxSched
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opts.parallelism(); w++ {
		wg.Add(1)
		//repro:allow goroutine sanctioned fuzz worker pool; seeds partition by atomic counter and results merge in canonical seed order
		go func() {
			defer wg.Done()
			r := c.addRunner(build)
			dog := newWatchdog(opts)
			var rec *sched.Record
			if c.opts.needDecisions() {
				rec = sched.NewRecord(nil)
			}
			var acc *measureAcc
			if c.opts.Measure {
				acc = newMeasureAcc()
				defer func() { c.mergeMeasure(acc) }()
			}
			// Schedule source: the legacy seeded Random (reseeded in
			// place per run), a Reseedable single-node model (reseeded in
			// place with the derived run seed), or a full per-run model
			// rebuild for wrapper and non-reseedable specs.
			spec := opts.SchedModel
			var rng *sched.Random
			var fast sched.Reseedable
			if spec == nil {
				rng = sched.NewRandom(0)
			} else if spec.Inner == nil {
				if base, err := sched.NewFromSpec(spec); err == nil {
					fast, _ = base.(sched.Reseedable)
				}
			}
			chooserFor := func(seed int64) sim.Chooser {
				switch {
				case rng != nil:
					rng.Reseed(seed)
					return rng
				case fast != nil:
					fast.Reseed(sched.RunSeed(spec.Seed, seed))
					return fast
				default:
					ch, err := sched.NewFromSpec(spec.WithRunSeed(seed))
					if err != nil {
						panic(err) // unreachable: spec validated at entry
					}
					return ch
				}
			}
			for {
				if c.stopped() {
					return
				}
				seed := next.Add(1) - 1
				if seed >= n {
					return
				}
				var verr error
				var panicked bool
				describe := func() string { return fmt.Sprintf("seed=%d", seed) }
				for attempt := 0; ; attempt++ {
					var ch sim.Chooser = chooserFor(seed)
					if rec != nil {
						rec.Reset(ch)
						ch = rec
					}
					ch = dog.arm(ch)
					verr, panicked = protectedRun(describe, func() error {
						sys, verify, runErr := r.run(ch)
						if dog.fired() {
							return nil // timed out; handled below
						}
						out := c.outcome(sys, verify, runErr)
						if acc != nil {
							acc.observe(sys)
						}
						return out
					})
					if !panicked && dog.fired() && attempt == 0 {
						continue // retry a timed-out run once
					}
					break
				}
				if panicked {
					r.invalidate()
				}
				if !panicked && dog.fired() {
					c.timedOut.Add(1)
					c.count()
					continue
				}
				if verr != nil {
					var dec []int
					if rec != nil && !panicked {
						dec = canonDecisions(rec.Taken)
					}
					c.violation(schedKey{seed}, describe(), verr, dec)
				}
				c.count()
			}
		}()
	}
	wg.Wait()
	c.closeRunners()
	// The seed range was cut by MaxSchedules; as in the tree explorers,
	// a StopAtFirst hit reports the violation rather than truncation.
	if int64(nSeeds) > c.maxSched && !(opts.StopAtFirst && c.violTotal.Load() > 0) {
		c.truncated.Store(true)
	}
	return c.result()
}
