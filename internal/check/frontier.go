package check

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
)

// SwitchRec is one directed deviation of an ExploreBudget frontier
// item, in its serializable form.
type SwitchRec struct {
	// Decision is the decision index the deviation applies at.
	Decision int64 `json:"d"`
	// Choice is the candidate index taken there.
	Choice int `json:"c"`
}

// FrontierItem is one unexplored part of an interrupted exploration,
// in serializable form. Its shape follows the explorer: Prefix (and
// Sleep, under sleep-set reduction) for ExploreAll subtrees,
// Switches/Budget/MinIndex for ExploreBudget subtrees, and Seed for the
// rest of a Fuzz seed range.
type FrontierItem struct {
	// Prefix is the ExploreAll decision-vector prefix rooting the
	// subtree.
	Prefix []int `json:"prefix,omitempty"`
	// Sleep is the sleep set in effect right after the prefix's branch
	// decision (reduced ExploreAll with sleep sets). Footprints are
	// stable hashes of object names, so the set means the same thing to
	// a later process. sched.SleepEntry and mem.Footprint carry the JSON
	// tags, pinned by TestFrontierItemEncoding.
	Sleep []sched.SleepEntry `json:"sleep,omitempty"`
	// Switches are the ExploreBudget deviations applied so far.
	Switches []SwitchRec `json:"switches,omitempty"`
	// Budget is the remaining deviation budget of the subtree.
	Budget int `json:"budget,omitempty"`
	// MinIndex is the first decision index at which further deviations
	// may be placed.
	MinIndex int64 `json:"min_index,omitempty"`
	// Seed is the first Fuzz seed not yet run: the rest of the range,
	// up to the nSeeds Fuzz is called with, is unexplored.
	Seed int64 `json:"seed,omitempty"`
}

// Frontier is the checkpointable remainder of an interrupted
// exploration: a set of disjoint unexplored subtrees (or the rest of a
// seed range) that, together with the schedules already executed,
// covers the whole exploration. A Frontier exported by an interrupted
// run (see Options.ExportFrontier) can be fed back via
// Options.SeedFrontier to continue where the exploration left off: the
// resumed leg executes the schedules the interrupted leg did not, so
// summing Schedules and merging Violations across legs reproduces the
// uninterrupted exploration.
//
// Every explorer exports and resumes. Plain explorations, sleep-set
// reduction (each item carries its sleep set) and Fuzz resume exactly.
// The fingerprint cache is not carried: a resumed leg starts with an
// empty cache, which only forgoes pruning (DESIGN.md §10), so the verdict
// is the same and the legs may run more schedules than one uninterrupted
// exploration.
type Frontier struct {
	// Explorer identifies the explorer the frontier belongs to:
	// "all" (ExploreAll), "budget" (ExploreBudget) or "fuzz" (Fuzz).
	Explorer string `json:"explorer"`
	// Budget echoes the ExploreBudget root budget (diagnostic only; each
	// item carries its own remaining budget).
	Budget int `json:"budget,omitempty"`
	// Items are the unexplored subtrees, in canonical schedule order.
	Items []FrontierItem `json:"items"`
	// Schedules echoes how many schedules the interrupted leg executed
	// before exporting (diagnostic only).
	Schedules int `json:"schedules"`
}

// Empty reports whether the frontier holds no pending work.
func (f *Frontier) Empty() bool { return f == nil || len(f.Items) == 0 }

// keyedFrontier pairs an exported item with its canonical schedule key
// so the Result's frontier is ordered deterministically (for a
// deterministic interruption point — e.g. MaxSchedules at
// Parallelism 1 — the exported frontier is then byte-identical
// run-to-run).
type keyedFrontier struct {
	key  schedKey
	item FrontierItem
}

func (c *collector) exportItem(key schedKey, item FrontierItem) {
	c.mu.Lock()
	c.fronts = append(c.fronts, keyedFrontier{key: key, item: item})
	c.mu.Unlock()
}

// checkSeed validates that a seeded frontier was exported by the
// explorer now consuming it (a frontier's items only make sense to the
// explorer whose subtree shape they encode).
func checkSeed(f *Frontier, explorer string) {
	if f != nil && f.Explorer != "" && f.Explorer != explorer {
		panic(fmt.Sprintf("check: SeedFrontier exported by the %q explorer fed to %q", f.Explorer, explorer))
	}
}

// seedItemsAll converts a seeded frontier back into ExploreAll work
// items (the zero frontier yields the root subtree).
func seedItemsAll(f *Frontier) []*prefixItem {
	if f == nil {
		return []*prefixItem{{}}
	}
	items := make([]*prefixItem, len(f.Items))
	for i, fi := range f.Items {
		items[i] = &prefixItem{prefix: fi.Prefix, sleep: fi.Sleep}
	}
	return items
}

// seedItemsBudget converts a seeded frontier back into ExploreBudget
// work items.
func seedItemsBudget(f *Frontier, budget int) []*budgetItem {
	if f == nil {
		return []*budgetItem{{budget: budget}}
	}
	items := make([]*budgetItem, len(f.Items))
	for i, fi := range f.Items {
		it := &budgetItem{budget: fi.Budget, minIndex: fi.MinIndex}
		for _, sw := range fi.Switches {
			it.switches = append(it.switches, sched.Switch{At: sw.Decision, Choice: sw.Choice})
		}
		items[i] = it
	}
	return items
}

// watchdog is one worker's per-run deadline state (nil when
// Options.RunDeadline is unset: every method is nil-receiver safe, so
// the plain path pays nothing).
type watchdog struct {
	wd       sched.Watchdog
	deadline time.Duration
}

func newWatchdog(opts Options) *watchdog {
	if opts.RunDeadline <= 0 {
		return nil
	}
	return &watchdog{deadline: opts.RunDeadline}
}

// arm wraps ch for one run attempt, starting the deadline clock.
func (g *watchdog) arm(ch sim.Chooser) sim.Chooser {
	if g == nil {
		return ch
	}
	//repro:allow walltime per-run watchdog deadline; a fired deadline is counted in TimedOutRuns, never replayed output
	start := time.Now()
	g.wd.Rearm(ch)
	g.wd.Stop = func() bool {
		//repro:allow walltime per-run watchdog deadline; a fired deadline is counted in TimedOutRuns, never replayed output
		return time.Since(start) > g.deadline
	}
	return &g.wd
}

// fired reports whether the last armed run was cut off.
func (g *watchdog) fired() bool { return g != nil && g.wd.Fired }

// Degradation ladder: when Options.MemSoftLimit is set, the collector
// polls the heap every ProgressEvery schedules and, while over the
// limit, takes one mitigation step per poll: first shed the fingerprint
// cache (reduced modes only — dropping entries only forgoes pruning,
// never soundness), then halve the number of workers allowed to claim
// new work, down to one. Each step is recorded in Result.Degradations.
// Steps never affect verdicts; under reduction they can increase the
// schedule count (less pruning), and parked workers only shrink the
// live frontier footprint.

// heapBytes reads the bytes of allocated heap objects, the quantity
// runtime.MemStats.HeapAlloc reports, without stopping the world as
// runtime.ReadMemStats does.
func heapBytes() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// memPressure polls the heap (called from count() at progress
// boundaries) and takes at most one degradation step.
func (c *collector) memPressure() {
	if c.memSoft == 0 {
		return
	}
	heap := heapBytes()
	if heap <= c.memSoft {
		return
	}
	c.mu.Lock()
	event := ""
	switch {
	case !c.cacheShed && c.cache != nil:
		c.cacheShed = true
		c.cache.shed()
		event = fmt.Sprintf("memory pressure: heap %dMB over soft limit %dMB; shed fingerprint cache", heap>>20, c.memSoft>>20)
	default:
		if n := c.allowed.Load(); n > 1 {
			c.allowed.Store((n + 1) / 2)
			event = fmt.Sprintf("memory pressure: heap %dMB over soft limit %dMB; stepped workers %d -> %d", heap>>20, c.memSoft>>20, n, (n+1)/2)
		} else if !c.degradeFloor {
			c.degradeFloor = true
			event = fmt.Sprintf("memory pressure: heap %dMB over soft limit %dMB with all mitigations applied; continuing at minimum", heap>>20, c.memSoft>>20)
		}
	}
	if event != "" {
		c.degradations = append(c.degradations, event)
	}
	c.mu.Unlock()
	if event != "" {
		runtime.GC()
	}
}

// parked reports whether worker w has been parked by the degradation
// ladder: it must stop claiming new work (its queued items remain
// stealable). Worker 0 never parks, so the exploration always
// progresses.
func (c *collector) parked(w int) bool {
	return w > 0 && int32(w) >= c.allowed.Load()
}
