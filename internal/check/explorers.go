package check

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/sim"
)

// prefixItem identifies one ExploreAll subtree: the decision prefix at
// its root and, under sleep-set reduction, the sleep set in effect right
// after the prefix's branch decision (nil otherwise).
type prefixItem struct {
	prefix []int
	sleep  []sched.SleepEntry
}

// prefixShape is what the prefix and sleep-set strategies share: both
// walk ExploreAll's decision-prefix tree.
type prefixShape struct{}

func (prefixShape) key(it *prefixItem) schedKey {
	key := make(schedKey, len(it.prefix))
	for i, d := range it.prefix {
		key[i] = int64(d)
	}
	return key
}

func (prefixShape) describe(it *prefixItem) string { return fmt.Sprintf("decisions=%v", it.prefix) }

func (prefixShape) frontier(it *prefixItem) FrontierItem {
	return FrontierItem{Prefix: slices.Clone(it.prefix), Sleep: slices.Clone(it.sleep)}
}

// ExploreAll exhaustively enumerates the full schedule tree (every
// choice at every decision point) up to opts.MaxSchedules schedules,
// fanning disjoint decision-vector subtrees out over
// opts.Parallelism workers. With a Reduction it walks the same tree
// with the sleep-set strategy, which only removes work: asleep branches
// are never spawned, and all-asleep and revisited-state runs abort
// early, still seeding children for the decisions they completed.
func ExploreAll(build Builder, opts Options) *Result {
	checkSeed(opts.SeedFrontier, "all")
	c := newCollector(opts)
	roots := seedItemsAll(opts.SeedFrontier)
	if opts.Reduction == ReductionNone {
		explore(c, roots, func(int) *driver[prefixItem] {
			return newDriver[prefixItem](c, build, &prefixStrategy{})
		})
		return c.result("all", 0)
	}
	cache := c.fingerprintCache()
	explore(c, roots, func(worker int) *driver[prefixItem] {
		s := &sleepStrategy{c: c, ch: sched.Reduced{SleepSets: opts.Reduction.sleepSets(), Budget: unboundedBudget}}
		if cache != nil {
			s.ch.Prune = cache.pruneFunc(worker)
		}
		return newDriver[prefixItem](c, build, s)
	})
	res := c.result("all", 0)
	res.Reduction = c.reductionStats()
	return res
}

// prefixStrategy is plain ExploreAll's strategy. The schedule at the
// root of a subtree is its prefix followed by implicit zeros, and its
// children are every single-point deviation at or after the prefix;
// together with the root's run they cover the subtree exactly once.
type prefixStrategy struct {
	prefixShape
	script sched.Script
	taken  []int
}

func (s *prefixStrategy) reset(it *prefixItem) sim.Chooser {
	s.script.Reset(it.prefix)
	return &s.script
}

func (s *prefixStrategy) aliased(it *prefixItem) bool {
	return s.script.Clamped || len(s.script.Fanouts) < len(it.prefix)
}

func (s *prefixStrategy) pruned() *atomic.Int64 { return nil }

func (s *prefixStrategy) decisions(it *prefixItem) []int { return canonDecisions(it.prefix) }

func (s *prefixStrategy) children(it *prefixItem, push func(*prefixItem)) {
	prefix, fanouts := it.prefix, s.script.Fanouts
	taken := append(s.taken[:0], prefix...)
	for len(taken) < len(fanouts) {
		taken = append(taken, 0)
	}
	s.taken = taken
	// Children are slab-allocated: exact capacities sized by a counting
	// pass, so the fill appends never reallocate, item pointers and
	// prefix subslices stay stable, and the whole frontier of one
	// schedule costs two heap objects. The three-index subslicing keeps
	// each child's prefix detached from its neighbors' (appends force a
	// copy).
	children, prefixInts := 0, 0
	for i := len(prefix); i < len(taken); i++ {
		if n := fanouts[i] - 1; n > 0 {
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
		for choice := fanouts[i] - 1; choice >= 1; choice-- {
			ps := len(prefixSlab)
			prefixSlab = append(prefixSlab, taken[:i]...)
			prefixSlab = append(prefixSlab, choice)
			items = append(items, prefixItem{prefix: prefixSlab[ps:len(prefixSlab):len(prefixSlab)]})
			push(&items[len(items)-1])
		}
	}
}

// budgetItem identifies one ExploreBudget subtree: the deviations
// applied so far (sorted by decision index), the remaining deviation
// budget, and the first decision index at which further deviations may
// be placed (keeping every ≤budget-deviation schedule covered exactly
// once).
type budgetItem struct {
	switches []sched.Switch
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
	cache := c.fingerprintCache()
	explore(c, seedItemsBudget(opts.SeedFrontier, budget), func(worker int) *driver[budgetItem] {
		s := &budgetStrategy{c: c}
		if cache != nil {
			// The chooser consults the cache only past the last directed
			// switch, where the run is a pure default continuation from a
			// state the fingerprint fully identifies (plus the chooser's
			// current-process steering, folded in via PruneInfo.Extra).
			s.ch.Prune = cache.pruneFunc(worker)
		}
		return newDriver[budgetItem](c, build, s)
	})
	res := c.result("budget", budget)
	if opts.Reduction != ReductionNone {
		res.Reduction = c.reductionStats()
	}
	return res
}

// budgetStrategy is ExploreBudget's switch-word strategy.
type budgetStrategy struct {
	c  *collector
	ch sched.BudgetedSwitch
}

func (s *budgetStrategy) reset(it *budgetItem) sim.Chooser {
	s.ch.Reset(it.switches, it.budget)
	return &s.ch
}

// aliased: a clamped or never-reached switch means the replay aliased a
// schedule with another switch word. A pruned run never looks aliased:
// pruning fires only past the last directed switch.
func (s *budgetStrategy) aliased(it *budgetItem) bool {
	return s.ch.Clamped || (len(it.switches) > 0 && it.switches[len(it.switches)-1].At >= s.ch.Decision)
}

func (s *budgetStrategy) pruned() *atomic.Int64 {
	if s.ch.Pruned {
		return &s.c.redFPPruned
	}
	return nil
}

func (s *budgetStrategy) key(it *budgetItem) schedKey {
	key := make(schedKey, 0, 2*len(it.switches))
	for _, sw := range it.switches {
		key = append(key, sw.At, int64(sw.Choice))
	}
	return key
}

// describe names the run by its switch word, in the form fmt prints a
// map from decision index to choice: switches=map[3:1 9:0].
func (s *budgetStrategy) describe(it *budgetItem) string {
	var b strings.Builder
	b.WriteString("switches=map[")
	for i, sw := range it.switches {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", sw.At, sw.Choice)
	}
	b.WriteByte(']')
	return b.String()
}

func (s *budgetStrategy) decisions(*budgetItem) []int { return canonDecisions(s.ch.Taken) }

// children loops over the decisions with a recorded choice: for a pruned
// run that excludes the abort decision, whose deviations the cached
// visitor covers.
func (s *budgetStrategy) children(it *budgetItem, push func(*budgetItem)) {
	if it.budget == 0 {
		return
	}
	taken := s.ch.Taken
	for d := int64(len(taken)) - 1; d >= it.minIndex; d-- {
		for choice := s.ch.Fanouts[d] - 1; choice >= 0; choice-- {
			if choice == taken[d] {
				continue
			}
			push(&budgetItem{
				switches: append(it.switches[:len(it.switches):len(it.switches)], sched.Switch{At: d, Choice: choice}),
				budget:   it.budget - 1,
				minIndex: d + 1,
			})
		}
	}
}

func (s *budgetStrategy) frontier(it *budgetItem) FrontierItem {
	fi := FrontierItem{Budget: it.budget, MinIndex: it.minIndex}
	for _, sw := range it.switches {
		fi.Switches = append(fi.Switches, SwitchRec{Decision: sw.At, Choice: sw.Choice})
	}
	return fi
}

// Fuzz runs nSeeds seeded pseudo-random schedules, sharding the seed
// range over opts.Parallelism workers. Options.SchedModel names the
// scheduler model the schedules come from (nil = uniform); Options.Measure
// additionally accumulates the empirical progress-bound report into
// Result.Progress. A seeded frontier starts the range at its first seed
// not yet run.
func Fuzz(build Builder, nSeeds int, opts Options) *Result {
	if opts.SchedModel != nil {
		if err := opts.SchedModel.Validate(); err != nil {
			panic(err) // builder misuse: specs from user input are validated upstream
		}
	}
	checkSeed(opts.SeedFrontier, "fuzz")
	c := newCollector(opts)
	start := int64(0)
	if f := opts.SeedFrontier; f != nil {
		start = int64(nSeeds) // an empty frontier has nothing left to run
		if len(f.Items) > 0 {
			start = f.Items[0].Seed
		}
	}
	// Seeds are handed out in increasing order from one counter, and a
	// worker draws one only after a successful claim, which it then runs
	// whatever happens next. So the seeds run are exactly [start, next),
	// and the frontier is the first seed not yet run.
	n := min(int64(nSeeds), start+c.maxSched)
	var next atomic.Int64
	next.Store(start)
	var wg sync.WaitGroup
	for w := 0; w < opts.parallelism(); w++ {
		wg.Add(1)
		//repro:allow goroutine sanctioned fuzz worker pool; seeds partition by atomic counter and results merge in canonical seed order
		go func() {
			defer wg.Done()
			// Built on the worker's own goroutine, so that the chooser and
			// accumulator it writes on every run share no cache line with
			// another worker's.
			d := newDriver[seedItem](c, build, newSeedStrategy(opts))
			if opts.Measure {
				d.acc = newMeasureAcc()
				defer c.mergeMeasure(d.acc)
			}
			item := &seedItem{}
			for !c.parked(w) && c.claim() {
				if item.seed = next.Add(1) - 1; item.seed >= n {
					c.release()
					return
				}
				d.run(item, nil)
			}
		}()
	}
	wg.Wait()
	c.closeRunners()
	// The seed range was cut by MaxSchedules; as in the tree explorers, a
	// StopAtFirst hit reports the violation rather than truncation. Set
	// here, not by claim, since a worker's claim after the last seed can
	// fail on the cap too.
	c.truncated.Store(int64(nSeeds)-start > c.maxSched && !(opts.StopAtFirst && c.violTotal.Load() > 0))
	if first := min(next.Load(), n); first < int64(nSeeds) && opts.ExportFrontier {
		c.exportItem(schedKey{first}, FrontierItem{Seed: first})
	}
	return c.result("fuzz", 0)
}

// seedItem is one Fuzz run: its seed.
type seedItem struct{ seed int64 }

// seedStrategy draws a Fuzz run's schedule from its seed and the
// scheduler model: a Reseedable single-node model is reseeded in place
// with the derived run seed, and wrapper and non-reseedable specs are
// rebuilt per run. A recorder wraps the source when violations need
// decision vectors.
type seedStrategy struct {
	spec *sched.ModelSpec
	fast sched.Reseedable
	rec  *sched.Record
}

func newSeedStrategy(opts Options) *seedStrategy {
	s := &seedStrategy{spec: opts.SchedModel}
	if s.spec == nil {
		s.spec = &sched.ModelSpec{Name: "uniform"}
	}
	if s.spec.Inner == nil {
		if base, err := sched.NewFromSpec(s.spec); err == nil {
			s.fast, _ = base.(sched.Reseedable)
		}
	}
	if opts.needDecisions() {
		s.rec = sched.NewRecord(nil)
	}
	return s
}

func (s *seedStrategy) reset(it *seedItem) sim.Chooser {
	var ch sim.Chooser
	if s.fast != nil {
		s.fast.Reseed(sched.RunSeed(s.spec.Seed, it.seed))
		ch = s.fast
	} else {
		var err error
		if ch, err = sched.NewFromSpec(s.spec.WithRunSeed(it.seed)); err != nil {
			panic(err) // unreachable: spec validated at entry
		}
	}
	if s.rec != nil {
		s.rec.Reset(ch)
		ch = s.rec
	}
	return ch
}

func (s *seedStrategy) aliased(*seedItem) bool              { return false }
func (s *seedStrategy) pruned() *atomic.Int64               { return nil }
func (s *seedStrategy) key(it *seedItem) schedKey           { return schedKey{it.seed} }
func (s *seedStrategy) describe(it *seedItem) string        { return fmt.Sprintf("seed=%d", it.seed) }
func (s *seedStrategy) children(*seedItem, func(*seedItem)) {}
func (s *seedStrategy) frontier(it *seedItem) FrontierItem  { return FrontierItem{Seed: it.seed} }

func (s *seedStrategy) decisions(*seedItem) []int {
	if s.rec == nil {
		return nil
	}
	return canonDecisions(s.rec.Taken)
}
