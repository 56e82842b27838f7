package check

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Reduction selects which exploration reductions are active. Both
// reductions preserve verdicts: a reduced exploration that runs to
// completion reports a violation if and only if the plain exploration
// does (see DESIGN.md §10 for the soundness argument). They do not
// preserve violation counts — equivalent interleavings of the same bug
// collapse into one representative — so ViolationsTotal under reduction
// is a lower bound on the plain count.
type Reduction int

const (
	// ReductionNone preserves the historical plain enumeration exactly.
	ReductionNone Reduction = iota
	// ReductionSleepSet enables sleep-set partial-order reduction in
	// ExploreAll: sibling branches whose next statements commute with
	// everything executed since are never spawned. ExploreBudget ignores
	// it (its schedules are identified by switch words, not decision
	// prefixes).
	ReductionSleepSet
	// ReductionFingerprint enables visited-state fingerprint pruning in
	// ExploreAll and ExploreBudget: a run reaching a state another run
	// already covered with at least the same freedom aborts.
	ReductionFingerprint
	// ReductionFull enables both.
	ReductionFull
)

func (r Reduction) sleepSets() bool {
	return r == ReductionSleepSet || r == ReductionFull
}

func (r Reduction) fingerprints() bool {
	return r == ReductionFingerprint || r == ReductionFull
}

// String implements fmt.Stringer (and the flag.Value convention used by
// cmd/checker).
func (r Reduction) String() string {
	switch r {
	case ReductionNone:
		return "none"
	case ReductionSleepSet:
		return "sleepset"
	case ReductionFingerprint:
		return "fingerprint"
	case ReductionFull:
		return "full"
	default:
		return fmt.Sprintf("Reduction(%d)", int(r))
	}
}

// ParseReduction parses the CLI spelling of a Reduction.
func ParseReduction(s string) (Reduction, error) {
	switch s {
	case "none":
		return ReductionNone, nil
	case "sleepset":
		return ReductionSleepSet, nil
	case "fingerprint":
		return ReductionFingerprint, nil
	case "full":
		return ReductionFull, nil
	default:
		return ReductionNone, fmt.Errorf("check: unknown reduction %q (want none, sleepset, fingerprint, or full)", s)
	}
}

// ReductionStats reports what the reductions did during one exploration.
type ReductionStats struct {
	// Mode is the Reduction the exploration ran with.
	Mode string
	// SleepDeadlockRuns counts runs aborted mid-schedule because every
	// enabled candidate was asleep (sched.Reduced.SleepDeadlock): the
	// whole continuation was covered by earlier sibling subtrees. This
	// was misleadingly reported as sleep_pruned_runs before bench
	// schema v3; virtually all sleep-set savings are skipped branches
	// (SleepSkippedBranches), and 0 here is the expected value: a
	// deadlock needs EVERY candidate asleep, but the process granted
	// the preceding statement is never asleep (running a process wakes
	// its own entries, and branches are only spawned to awake
	// candidates), so as long as it stays enabled there is an awake
	// candidate, and when it departs — invocation end, completion,
	// crash — the access is globally dependent and wakes everyone. Only
	// a workload whose running process blocks mid-invocation without a
	// globally-dependent access could trigger it; no registered
	// workload does.
	SleepDeadlockRuns int
	// SleepSkippedBranches counts subtree children never spawned because
	// the branch candidate was asleep at its decision point.
	SleepSkippedBranches int64
	// FingerprintPrunedRuns counts runs aborted on reaching a state
	// another visit already covered.
	FingerprintPrunedRuns int
	// CacheHits counts fingerprint-cache lookups that found an entry
	// (whether or not the entry justified pruning).
	CacheHits int64
	// CacheEntries is the number of cache entries live at the end.
	CacheEntries int
	// CacheEvictions counts FIFO evictions forced by the cache's
	// capacity (fpCacheEntries). Evictions only reduce pruning, never
	// soundness.
	CacheEvictions int64
}

// unboundedBudget is the deviation budget reported for ExploreAll
// subtrees, which may deviate at every remaining decision.
const unboundedBudget = math.MaxInt

// fpEntry is one visited-state record: the canonical identity of the
// visit (its taken-decision vector), the sleep set it ran under, the
// deviation budget it had, and the worker whose run made the visit. The
// visitor was not pruned here, so its run continued past the state. A
// later visit of the same state may be pruned only if this visit
// explored at least as freely (superset budget, subset sleep); when
// both visits come from the same worker it must also be strictly more
// canonical and not simply the same run's own earlier pass through a
// default-continuation cycle (see visit).
type fpEntry struct {
	key    []int
	sleep  []sched.SleepEntry
	budget int
	worker int
}

// fpCacheEntries caps the visited-fingerprint cache, over all its
// shards: each shard holds an equal share, and a full shard evicts its
// oldest entry (FIFO), which only forgoes pruning.
const fpCacheEntries = 1 << 20

// fpCache is the bounded visited-fingerprint cache shared by all
// workers of one exploration. It is split into a power-of-two number of
// shards, each with its own lock, map, FIFO ring and key arena, and a
// fingerprint's top bits pick its shard: every entry for one
// fingerprint lives in one shard, so each visit sees exactly what an
// unsharded cache would show it, and two workers visiting different
// states rarely take the same lock. One worker gets one shard and no
// lock. Eviction is FIFO by insertion order within a shard:
// deterministic, and sound because dropping an entry only forgoes
// pruning. With Parallelism > 1 the insert/lookup interleaving across
// workers is timing-dependent, so reduced-mode schedule counts (never
// verdicts) can vary run-to-run; Parallelism: 1 restores byte-identical
// counts, because a worker's own entries follow the key order alone.
type fpCache struct {
	// noLock elides the shard locks on the single-worker path
	// (Parallelism 1), where visit() is on the per-decision hot loop and
	// even an uncontended lock pair is measurable.
	noLock bool
	shift  uint // 64 - log2(len(shards)): fp>>shift is fp's shard
	shards []fpShard
}

// fpShard is one lock's share of the cache: at most capacity entries,
// evicted FIFO.
type fpShard struct {
	mu        sync.Mutex
	capacity  int
	entries   map[uint64]fpEntry
	order     []uint64 // FIFO insertion ring
	head      int
	hits      int64
	evictions int64
	// keyChunk is the current slab for entry key copies: keys are
	// immutable once inserted (the replace path reuses the entry's own
	// slice), so carving them out of shared chunks cuts one heap object
	// per visited state to 1/keyChunkSize amortized. FIFO eviction
	// retires keys in roughly insertion order, so dead keys cluster in
	// the oldest chunks and a chunk is collected once its window of
	// entries has been evicted. A shard's first chunk is its share of
	// keyChunkSize, and each later one doubles up to keyChunkSize, so a
	// sharded cache allocates no more up front than one shard does.
	keyChunk   []int
	firstChunk int
	// Pads shards apart, so that no cache line holds fields of two
	// shards and a worker holding one shard's lock does not slow
	// another's.
	_ [64]byte
}

const keyChunkSize = 4096

// fpShards is the shard count of a cache for this many workers: one for
// one worker, otherwise the power of two at or above eight per worker,
// but never more shards than capacity, so every shard has room for an
// entry.
func fpShards(workers, capacity int) int {
	n := 1
	for workers > 1 && n < 8*workers && 2*n <= capacity {
		n *= 2
	}
	return n
}

// newFPCache returns an empty cache of capacity entries for an
// exploration with this many workers.
func newFPCache(capacity, workers int) *fpCache {
	n := fpShards(workers, capacity)
	// The map is NOT pre-sized to capacity: the default cap is 2^20
	// entries, and clearing that many empty buckets up front costs more
	// than entire small explorations (it was 75% of reduced-mode CPU on
	// the bench workload). capacity only bounds eviction; the maps grow
	// to fit actual use. A sharded cache sizes each shard's map for half
	// its share of the one-shard hint: n maps sized for full shares would
	// together cost more up front than the one map does.
	hint := min(capacity/4, 1024)
	if n > 1 {
		hint /= 2 * n
	}
	c := &fpCache{
		noLock: workers == 1,
		shift:  uint(64 - bits.TrailingZeros(uint(n))),
		shards: make([]fpShard, n),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = capacity / n
		if i < capacity%n {
			s.capacity++
		}
		s.entries = make(map[uint64]fpEntry, hint)
		s.firstChunk = keyChunkSize / n
	}
	return c
}

// putKey copies key into the current chunk, returning a stable
// full-capacity subslice.
func (s *fpShard) putKey(key []int) []int {
	if len(s.keyChunk)+len(key) > cap(s.keyChunk) {
		n := max(min(2*cap(s.keyChunk), keyChunkSize), s.firstChunk, len(key))
		s.keyChunk = make([]int, 0, n)
	}
	ks := len(s.keyChunk)
	s.keyChunk = append(s.keyChunk, key...)
	return s.keyChunk[ks:len(s.keyChunk):len(s.keyChunk)]
}

// compareKey orders taken-decision vectors lexicographically with a
// proper prefix before its extensions — a well-founded total order on
// visits, which the pruning induction needs.
func compareKey(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// isPrefix reports whether a is a proper prefix of b.
func isPrefix(a, b []int) bool {
	if len(a) >= len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sleepSubset reports whether every entry of a is present in b.
func sleepSubset(a, b []sched.SleepEntry) bool {
	for _, e := range a {
		found := false
		for _, f := range b {
			if e == f {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// visit records or consults the cache for state fingerprint fp reached
// by a run of worker w identified by taken, and reports whether the run
// may be pruned here. taken and sleep are only valid during the call
// (they are copied on insert).
//
// The rules:
//
//   - miss: insert, never prune — the current run claims the state.
//   - hit on another worker's entry: prune if that visitor covers ours,
//     whatever the two keys; otherwise continue and leave the entry
//     alone.
//   - hit on the worker's own entry: the key order decides, as it
//     always has on a single worker. An equal key is the run's own
//     replay, and a key that is a proper prefix of taken is the run's
//     own earlier pass through a default-continuation cycle; neither
//     prunes, since that would cut deviations past this point that
//     nobody else generates (a real cycle ends at MaxSteps, as in the
//     plain explorer). A strictly smaller key prunes if it covers
//     ours. A strictly larger key is replaced by the current, more
//     canonical visitor, which continues.
//
// Every entry belongs to a visitor that was not pruned at the state and
// so ran on past it, and fingerprint-equal states sit at the same step
// depth (the fingerprint hashes every process's statement count). A
// prune therefore hands the subtree to a run already past the state,
// which can itself be pruned only strictly deeper; induction on depth
// bottoms out at the deepest states, so any covering entry may prune
// (DESIGN.md §10). The key order on a worker's own entries is not
// needed for soundness: it keeps single-worker explorations exactly as
// they were.
func (c *fpCache) visit(fp uint64, w int, taken []int, sleep []sched.SleepEntry, budget int) bool {
	s := &c.shards[fp>>c.shift]
	if !c.noLock {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	e, ok := s.entries[fp]
	if !ok {
		s.insert(fp, w, taken, sleep, budget)
		return false
	}
	s.hits++
	if e.worker != w {
		return e.covers(budget, sleep)
	}
	switch cmp := compareKey(e.key, taken); {
	case cmp == 0:
		return false
	case cmp < 0:
		return !isPrefix(e.key, taken) && e.covers(budget, sleep)
	default:
		// The current run is the more canonical visitor: replace the
		// entry in place, reusing its slices (they belong to this entry
		// alone, so truncate-and-append cannot alias another visitor).
		e.key = append(e.key[:0], taken...)
		e.sleep = append(e.sleep[:0], sleep...)
		e.budget = budget
		s.entries[fp] = e
		return false
	}
}

// covers reports whether e's visitor explored the shared future at
// least as freely as a visitor with this budget and sleep set: every
// deviation the visitor may still place, e's visitor could too, and
// every branch the visitor may take, e's visitor did not skip.
func (e fpEntry) covers(budget int, sleep []sched.SleepEntry) bool {
	return e.budget >= budget && sleepSubset(e.sleep, sleep)
}

// insert records a miss in the shard, evicting the shard's oldest entry
// when it is full.
func (s *fpShard) insert(fp uint64, w int, taken []int, sleep []sched.SleepEntry, budget int) {
	if len(s.entries) >= s.capacity {
		victim := s.order[s.head]
		s.order[s.head] = fp
		s.head = (s.head + 1) % len(s.order)
		delete(s.entries, victim)
		s.evictions++
	} else {
		s.order = append(s.order, fp)
	}
	var sleepCopy []sched.SleepEntry
	if len(sleep) > 0 {
		sleepCopy = append(sleepCopy, sleep...)
	}
	s.entries[fp] = fpEntry{
		key:    s.putKey(taken),
		sleep:  sleepCopy,
		budget: budget,
		worker: w,
	}
}

// shed empties the cache under memory pressure (the collector's
// degradation ladder). Sound for the same reason FIFO eviction is:
// dropping entries only forgoes pruning, so later runs re-execute work
// instead of being cut off — verdicts are unaffected. Visits may go on
// in the other shards while one is emptied.
func (c *fpCache) shed() {
	c.each(func(s *fpShard) {
		s.entries = make(map[uint64]fpEntry, 64/len(c.shards))
		s.order = nil
		s.head = 0
		s.keyChunk = nil
	})
}

// stats sums the shards' hits, evictions and live entries.
func (c *fpCache) stats() (hits, evictions int64, entries int) {
	c.each(func(s *fpShard) {
		hits += s.hits
		evictions += s.evictions
		entries += len(s.entries)
	})
	return hits, evictions, entries
}

// each calls f on every shard in turn, under that shard's lock. The
// noLock fast path is safe here too: at Parallelism 1 the callers run
// on the single exploring goroutine, between runs.
func (c *fpCache) each(f func(s *fpShard)) {
	for i := range c.shards {
		s := &c.shards[i]
		if !c.noLock {
			s.mu.Lock()
		}
		f(s)
		if !c.noLock {
			s.mu.Unlock()
		}
	}
}

// pruneFunc adapts the cache to the chooser-side sched.PruneFunc
// contract for worker w's chooser: the state key folds the chooser's
// private steering state (PruneInfo.Extra) into the system fingerprint,
// since two states equal in the system but steered differently have
// different futures.
func (c *fpCache) pruneFunc(w int) sched.PruneFunc {
	return func(info sched.PruneInfo) bool {
		fp := mem.Mix(info.Decision.Sys.Fingerprint(), info.Extra)
		return c.visit(fp, w, info.Taken, info.Sleep, info.Budget)
	}
}

// sleepStrategy is reduced ExploreAll's strategy: it walks the plain
// explorer's decision-prefix tree with sched.Reduced, which continues a
// prefix with default decisions (the first awake candidate), skips
// asleep branches and aborts runs the fingerprint cache covers.
type sleepStrategy struct {
	prefixShape
	c  *collector
	ch sched.Reduced
}

func (s *sleepStrategy) reset(it *prefixItem) sim.Chooser {
	s.ch.Reset(it.prefix, it.sleep)
	return &s.ch
}

func (s *sleepStrategy) aliased(it *prefixItem) bool {
	return s.ch.Clamped || len(s.ch.Fanouts) < len(it.prefix)
}

func (s *sleepStrategy) pruned() *atomic.Int64 {
	switch {
	case s.ch.Pruned:
		return &s.c.redFPPruned
	case s.ch.SleepDeadlock:
		return &s.c.redSleepPruned
	}
	return nil
}

func (s *sleepStrategy) decisions(*prefixItem) []int { return canonDecisions(s.ch.Taken) }

func (s *sleepStrategy) children(it *prefixItem, push func(*prefixItem)) {
	ch, c := &s.ch, s.c
	base := len(it.prefix)
	// Children are slab-allocated: one counting pass sizes three exact
	// backing arrays (items, prefixes, sleep sets), then the fill pass
	// carves three-index subslices out of them. Exact capacities mean
	// the fill appends never reallocate, so &items[k] pointers and slab
	// subslices stay stable, and a schedule's whole frontier costs three
	// heap objects instead of three per child.
	children, prefixInts, sleepEnts := 0, 0, 0
	for i := base; i < len(ch.Taken); i++ {
		snap := ch.Snaps[i-base]
		for j := range snap.Cands {
			if j == snap.Taken || snap.Cands[j].Asleep {
				continue
			}
			children++
			prefixInts += i + 1
			if ch.SleepSets {
				sleepEnts += len(snap.Sleep)
				for m := 0; m < j; m++ {
					if cm := snap.Cands[m]; !cm.Asleep && cm.FpKnown {
						sleepEnts++
					}
				}
			}
		}
	}
	if children == 0 {
		// Still tally the asleep branches the loop below would have.
		for i := base; i < len(ch.Taken); i++ {
			snap := ch.Snaps[i-base]
			for j := range snap.Cands {
				if j != snap.Taken && snap.Cands[j].Asleep {
					c.redSleepSkipped.Add(1)
				}
			}
		}
		return
	}
	items := make([]prefixItem, 0, children)
	prefixSlab := make([]int, 0, prefixInts)
	sleepSlab := make([]sched.SleepEntry, 0, sleepEnts)
	for i := base; i < len(ch.Taken); i++ {
		snap := ch.Snaps[i-base]
		for j := len(snap.Cands) - 1; j >= 0; j-- {
			if j == snap.Taken {
				continue
			}
			if snap.Cands[j].Asleep {
				c.redSleepSkipped.Add(1)
				continue
			}
			ps := len(prefixSlab)
			prefixSlab = append(prefixSlab, ch.Taken[:i]...)
			prefixSlab = append(prefixSlab, j)
			var childSleep []sched.SleepEntry
			if ch.SleepSets {
				// The child wakes after its earlier siblings: it inherits
				// this decision's live sleep set plus every awake sibling
				// explored before it (the taken branch and awake branches
				// at smaller indices), so their orderings are never
				// re-derived. Siblings with unknown footprints (arrivals)
				// cannot be represented and are simply not slept on. The
				// copy detaches the child from the chooser's snapshot
				// arena, which the next Reset reuses.
				ss := len(sleepSlab)
				sleepSlab = append(sleepSlab, snap.Sleep...)
				for m := 0; m < j; m++ {
					cm := snap.Cands[m]
					if !cm.Asleep && cm.FpKnown {
						sleepSlab = append(sleepSlab, sched.SleepEntry{Proc: cm.Proc, Processor: cm.Processor, Fp: cm.Fp})
					}
				}
				childSleep = sleepSlab[ss:len(sleepSlab):len(sleepSlab)]
			}
			items = append(items, prefixItem{
				prefix: prefixSlab[ps:len(prefixSlab):len(prefixSlab)],
				sleep:  childSleep,
			})
			push(&items[len(items)-1])
		}
	}
}
