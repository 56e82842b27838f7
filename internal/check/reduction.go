package check

import (
	"bytes"
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

// fpEntry is one visited-state record: the state's fingerprint, the
// canonical identity of the visit (its taken-decision vector, kept in
// the shard's key arena), the sleep set it ran under (in the shard's
// sleep arena), the deviation budget it had, and the worker whose run
// made the visit. The visitor was not pruned here, so its run continued
// past the state. A later visit of the same state may be pruned only if
// this visit explored at least as freely (superset budget, subset
// sleep); when both visits come from the same worker it must also be
// strictly more canonical and not simply the same run's own earlier
// pass through a default-continuation cycle (see visit). An entry holds
// no pointer, so the garbage collector never scans a shard's entries.
type fpEntry struct {
	fp     uint64
	budget int
	key    span
	sleep  span
	worker int32
}

// fpCacheEntries caps the visited-fingerprint cache, over all its
// shards: each shard holds an equal share, and a full shard evicts its
// oldest entry (FIFO), which only forgoes pruning.
const fpCacheEntries = 1 << 20

// The first sizes of a one-shard cache's parts. A shard of an n-shard
// cache starts from 1/n of each, and its ring blocks are half that,
// which pays for the n shard headers: a sharded cache allocates no
// more up front than one shard does.
const (
	fpIndexFirst   = 1024 // index slots
	fpRingBlock    = 512  // entries per ring block
	keyChunkSize   = 8192 // key bytes per arena chunk, at most
	sleepChunkSize = 256  // sleep entries per arena chunk, at most
)

// fpCache is the bounded visited-fingerprint cache shared by all
// workers of one exploration. It is split into a power-of-two number of
// shards, each with its own lock, index, ring and arenas, and a
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
// evicted FIFO, in flat tables the garbage collector need not scan.
//
//   - index is an open-addressed table probed linearly from a
//     fingerprint's home slot. A slot packs the fingerprint's low 32
//     bits, which pick the home slot, above its entry's ring position
//     plus one; 0 is an empty slot. The table doubles before it is three
//     quarters full, and eviction deletes by backward shift, so it holds
//     no tombstones.
//   - ring holds the entries in blocks of 1<<blockBits. Until the shard
//     is full an entry's ring position is its insertion number; from
//     then on each insert takes the oldest entry's place (head), so the
//     ring's order is the eviction order.
//   - keys and sleeps are arenas holding each entry's encoded key
//     (appendKey) and sleep set.
type fpShard struct {
	mu         sync.Mutex
	capacity   int
	index      []uint64
	firstIndex int // the index's first size (a power of two)
	ring       [][]fpEntry
	blockBits  uint
	head       int // ring position of the oldest entry
	n          int // live entries
	keys       arena[byte]
	sleeps     arena[sched.SleepEntry]
	key        []byte // the visiting key, encoded
	hits       int64
	evictions  int64
	// Pads shards apart, so that no cache line holds fields of two
	// shards and a worker holding one shard's lock does not slow
	// another's.
	_ [64]byte
}

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
// exploration with this many workers. Nothing is allocated for a shard
// until its first insert, and then only its share of a one-shard
// cache's first index, ring block and arena chunks; capacity only
// bounds eviction.
func newFPCache(capacity, workers int) *fpCache {
	n := fpShards(workers, capacity)
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
		s.firstIndex = max(fpIndexFirst/n, 2)
		block := fpRingBlock / n
		if n > 1 {
			block /= 2
		}
		s.blockBits = uint(bits.TrailingZeros(uint(max(block, 1))))
		s.keys = arena[byte]{first: max(keyChunkSize/n, 1), max: keyChunkSize}
		s.sleeps = arena[sched.SleepEntry]{first: max(sleepChunkSize/n, 1), max: sleepChunkSize}
	}
	return c
}

// appendKey appends the encoding of a taken-decision vector to b: one
// byte for a decision below 0xFF, and 0xFF followed by the decision's
// four big-endian bytes otherwise (decisions are candidate indices, so
// they fit). No code is a prefix of another, and codes order as their
// decisions do. So bytes.Compare orders encoded keys lexicographically
// with a proper prefix before its extensions — a well-founded total
// order on visits, which the pruning induction needs — and for two
// distinct keys, bytes.HasPrefix(b, a) holds exactly when a's vector is
// a proper prefix of b's.
func appendKey(b []byte, taken []int) []byte {
	for _, d := range taken {
		if d < 0xFF {
			b = append(b, byte(d))
		} else {
			b = append(b, 0xFF, byte(d>>24), byte(d>>16), byte(d>>8), byte(d))
		}
	}
	return b
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
	slot, e := s.find(fp)
	if e == nil {
		s.insert(slot, fp, w, taken, sleep, budget)
		return false
	}
	s.hits++
	if int(e.worker) != w {
		return s.covers(e, budget, sleep)
	}
	s.key = appendKey(s.key[:0], taken)
	cached := s.keys.get(e.key)
	switch cmp := bytes.Compare(cached, s.key); {
	case cmp == 0:
		return false
	case cmp < 0:
		return !bytes.HasPrefix(s.key, cached) && s.covers(e, budget, sleep)
	default:
		// The current run is the more canonical visitor: replace the
		// entry's key and sleep set, in place where they fit (they belong
		// to this entry alone).
		e.key = s.keys.replace(e.key, s.key)
		e.sleep = s.sleeps.replace(e.sleep, sleep)
		e.budget = budget
		return false
	}
}

// covers reports whether e's visitor explored the shared future at
// least as freely as a visitor with this budget and sleep set: every
// deviation the visitor may still place, e's visitor could too, and
// every branch the visitor may take, e's visitor did not skip.
func (s *fpShard) covers(e *fpEntry, budget int, sleep []sched.SleepEntry) bool {
	return e.budget >= budget && sleepSubset(s.sleeps.get(e.sleep), sleep)
}

// find returns the index slot holding fp's entry and the entry, or the
// slot at which fp's probe ends and nil when fp has no entry.
func (s *fpShard) find(fp uint64) (int, *fpEntry) {
	if len(s.index) == 0 {
		return -1, nil
	}
	mask := len(s.index) - 1
	tag := fp << 32
	for i := int(uint32(fp)) & mask; ; i = (i + 1) & mask {
		v := s.index[i]
		if v == 0 {
			return i, nil
		}
		if v&^math.MaxUint32 == tag {
			if e := s.entry(int(uint32(v)) - 1); e.fp == fp {
				return i, e
			}
		}
	}
}

// entry returns the entry at ring position id.
func (s *fpShard) entry(id int) *fpEntry {
	return &s.ring[id>>s.blockBits][id&(1<<s.blockBits-1)]
}

// insert records a miss at the index slot where fp's probe ended (-1
// for an empty index), evicting the shard's oldest entry when it is
// full. Eviction and growth move slots, so after either fp is probed
// again.
func (s *fpShard) insert(slot int, fp uint64, w int, taken []int, sleep []sched.SleepEntry, budget int) {
	if s.n == s.capacity {
		s.evict()
		slot = -1
	}
	id := s.head + s.n
	if id >= s.capacity {
		id -= s.capacity
	}
	if id>>s.blockBits == len(s.ring) {
		// Positions fill in order until the shard is full, so id starts
		// the block.
		s.ring = append(s.ring, make([]fpEntry, min(1<<s.blockBits, s.capacity-id)))
	}
	s.n++
	if 4*s.n > 3*len(s.index) {
		s.grow()
		slot = -1
	}
	if slot < 0 {
		slot, _ = s.find(fp)
	}
	s.index[slot] = fp<<32 | uint64(id+1)
	s.key = appendKey(s.key[:0], taken)
	*s.entry(id) = fpEntry{
		fp:     fp,
		budget: budget,
		key:    s.keys.put(s.key),
		sleep:  s.sleeps.put(sleep),
		worker: int32(w),
	}
}

// evict drops the oldest entry: it empties the entry's index slot by
// backward-shift deletion and releases its key and sleep set.
func (s *fpShard) evict() {
	id := s.head
	e := s.entry(id)
	mask := len(s.index) - 1
	i := int(uint32(e.fp)) & mask
	for s.index[i] != e.fp<<32|uint64(id+1) {
		i = (i + 1) & mask
	}
	// Move each later slot of the probe run back into the hole, unless
	// that would put it before its home slot.
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		v := s.index[j]
		if home := int(uint32(v>>32)) & mask; (j-home)&mask >= (j-i)&mask {
			s.index[i] = v
			i = j
		}
	}
	s.index[i] = 0
	s.keys.release(e.key)
	s.sleeps.release(e.sleep)
	if s.head++; s.head == s.capacity {
		s.head = 0
	}
	s.n--
	s.evictions++
}

// grow doubles the index (or allocates its first size) and re-homes
// every slot. A slot carries the bits that pick its home, so the ring
// is not read.
func (s *fpShard) grow() {
	old := s.index
	s.index = make([]uint64, max(2*len(old), s.firstIndex))
	mask := len(s.index) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := int(uint32(v>>32)) & mask
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = v
	}
}

// shed empties the cache under memory pressure (the collector's
// degradation ladder). Sound for the same reason FIFO eviction is:
// dropping entries only forgoes pruning, so later runs re-execute work
// instead of being cut off — verdicts are unaffected. Visits may go on
// in the other shards while one is emptied.
func (c *fpCache) shed() {
	c.each(func(s *fpShard) {
		s.index, s.ring, s.head, s.n = nil, nil, 0, 0
		s.keys.reset()
		s.sleeps.reset()
	})
}

// stats sums the shards' hits, evictions and live entries.
func (c *fpCache) stats() (hits, evictions int64, entries int) {
	c.each(func(s *fpShard) {
		hits += s.hits
		evictions += s.evictions
		entries += s.n
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

// span locates one key or sleep set in its arena: n elements from
// offset off of chunk chunk. An empty span refers to no chunk.
type span struct{ chunk, off, n uint32 }

// arena holds one shard's keys or sleep sets in chunks, so that an
// entry refers to its own by a pointer-free span. Each chunk counts the
// live spans in it, and a chunk left with none, other than the one
// being filled, is dropped and its id reused. Eviction is FIFO, so dead
// spans cluster in the oldest chunks, and an evicting cache holds a
// bounded number of chunks. The first chunk holds first elements, and
// each later one doubles up to max.
type arena[T any] struct {
	chunks     [][]T    // by id; nil once dropped
	live       []int32  // live spans per chunk
	free       []uint32 // ids of dropped chunks
	cur        uint32   // the chunk being filled, when there are chunks
	first, max int
}

// put copies v into the arena.
func (a *arena[T]) put(v []T) span {
	if len(v) == 0 {
		return span{}
	}
	if len(a.chunks) == 0 || len(a.chunks[a.cur])+len(v) > cap(a.chunks[a.cur]) {
		a.next(len(v))
	}
	c := a.chunks[a.cur]
	a.chunks[a.cur] = append(c, v...)
	a.live[a.cur]++
	return span{chunk: a.cur, off: uint32(len(c)), n: uint32(len(v))}
}

// next starts a chunk with room for at least need elements, dropping
// the current one if no live span is left in it.
func (a *arena[T]) next(need int) {
	size, old := a.first, -1
	if len(a.chunks) > 0 {
		old = int(a.cur)
		size = max(min(2*cap(a.chunks[a.cur]), a.max), a.first)
	}
	if n := len(a.free); n > 0 {
		a.cur, a.free = a.free[n-1], a.free[:n-1]
	} else {
		a.cur = uint32(len(a.chunks))
		a.chunks = append(a.chunks, nil)
		a.live = append(a.live, 0)
	}
	a.chunks[a.cur] = make([]T, 0, max(size, need))
	if old >= 0 && a.live[old] == 0 {
		a.drop(uint32(old))
	}
}

// get returns the elements at s. They stay valid until s is released
// or replaced.
func (a *arena[T]) get(s span) []T {
	if s.n == 0 {
		return nil
	}
	return a.chunks[s.chunk][s.off : s.off+s.n]
}

// replace stores v in s's place, overwriting s's elements when v fits
// in them, and returns v's span.
func (a *arena[T]) replace(s span, v []T) span {
	if len(v) > 0 && len(v) <= int(s.n) {
		copy(a.chunks[s.chunk][s.off:], v)
		s.n = uint32(len(v))
		return s
	}
	a.release(s)
	return a.put(v)
}

// release gives up s, dropping its chunk when s was the chunk's last
// live span and the chunk is not being filled.
func (a *arena[T]) release(s span) {
	if s.n == 0 {
		return
	}
	if a.live[s.chunk]--; a.live[s.chunk] == 0 && s.chunk != a.cur {
		a.drop(s.chunk)
	}
}

func (a *arena[T]) drop(id uint32) {
	a.chunks[id] = nil
	a.free = append(a.free, id)
}

// reset empties the arena, keeping its chunk sizes.
func (a *arena[T]) reset() {
	*a = arena[T]{first: a.first, max: a.max}
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
