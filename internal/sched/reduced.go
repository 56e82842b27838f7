package sched

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// SleepEntry is one sleeping alternative in a sleep-set reduced
// exploration: a process whose pending statement has already been
// explored in an earlier sibling subtree of the same decision point.
// While the entry is live, schedules that run the process are
// permutation-equivalent to schedules the earlier subtree covers, so
// the explorer neither picks nor branches to it. The entry wakes (is
// discarded) as soon as any dependent access executes. Exported
// frontiers persist entries (check.FrontierItem), so the JSON tags are
// a file format.
type SleepEntry struct {
	// Proc is the sleeping process's id.
	Proc int `json:"proc"`
	// Processor is that process's processor index.
	Processor int `json:"processor"`
	// Fp is the footprint of the process's pending statement at the
	// moment it was put to sleep; the process does not run while
	// asleep, so the footprint stays valid.
	Fp mem.Footprint `json:"fp"`
}

// Wakes reports whether executed access a wakes (invalidates) entry e:
// the access is dependent-with-everything (arrival, invocation end,
// crash), it was executed by the sleeping process itself (a forced
// singleton grant), it shares a processor with the sleeper under
// quantum scheduling (grant order decides quantum protection), or its
// footprint conflicts with the sleeper's pending statement. Wakes is
// the code of the independence relation every sleep set rests on: the
// access and the sleeper's pending statement are independent exactly
// when it reports false (DESIGN.md §10).
func (e SleepEntry) Wakes(a sim.Access, quantum int) bool {
	if a.Global || a.Proc == e.Proc {
		return true
	}
	if a.Processor == e.Processor && quantum > 0 {
		return true
	}
	return !a.Fp.Commutes(e.Fp)
}

// CandSnap is the explorer-facing snapshot of one candidate at one
// free-region decision point, captured so subtree children can be
// generated after the run completes.
type CandSnap struct {
	// Proc and Processor identify the candidate.
	Proc      int
	Processor int
	// Fp is the candidate's pending footprint; FpKnown is false for
	// thinking (arrival) candidates, which can be branched to but never
	// put to sleep.
	Fp      mem.Footprint
	FpKnown bool
	// Asleep reports that the candidate was in the live sleep set: its
	// subtree is covered by an earlier sibling and must not be spawned.
	Asleep bool
}

// DecisionSnap records one free-region decision point of a Reduced run.
type DecisionSnap struct {
	// Cands snapshots the candidates in kernel order.
	Cands []CandSnap
	// Taken is the index the run picked (the first awake candidate).
	Taken int
	// Sleep is the live sleep set at this decision, after waking on the
	// accesses executed since the previous decision. Children branching
	// here inherit it plus their explored earlier siblings.
	Sleep []SleepEntry
}

// PruneInfo is what a Reduced (or BudgetedSwitch) chooser hands the
// explorer's prune callback at a decision point: enough to decide
// whether the state's continuations are provably covered by an earlier
// visit somewhere else in the exploration.
type PruneInfo struct {
	// Decision is the kernel's decision point (Decision.Sys exposes the
	// state fingerprint). Its Since is empty unless the chooser reads
	// the log (Reduced with SleepSets).
	Decision sim.Decision
	// Taken is the run's decision vector so far, excluding this point —
	// the canonical identity of the path that reached the state. Valid
	// only during the call.
	Taken []int
	// Sleep is the live sleep set (nil when sleep sets are off). Valid
	// only during the call.
	Sleep []SleepEntry
	// Budget is the number of further deviations the exploration may
	// still place at or after this decision (the full subtree for
	// ExploreAll). Coverage comparisons require the cached visitor's
	// budget to be at least this.
	Budget int
	// Extra is chooser-private state that determines the default
	// continuation and so must be folded into the state fingerprint
	// (BudgetedSwitch contributes its current-process id; Reduced
	// contributes nothing).
	Extra uint64
}

// PruneFunc decides whether to cut the run at this decision point.
// Returning true makes the chooser return sim.PickAbort.
type PruneFunc func(info PruneInfo) bool

// Reduced is the footprint-aware replacement for Script used by the
// reduction-enabled exhaustive explorer: it replays a fixed decision
// prefix verbatim, then continues with default decisions (the first
// candidate not in the live sleep set), recording everything the
// explorer needs to spawn the subtree's children. Sleep-set
// partial-order reduction and visited-fingerprint pruning are each
// optional; with both off, Reduced picks exactly like Script.
//
// Decision vectors recorded in Taken are plain candidate indices:
// replaying them through a vanilla Script (or an artifact bundle)
// reproduces the identical run, so reduction never changes the repro
// format.
type Reduced struct {
	// Prefix is the decision prefix to replay verbatim.
	Prefix []int
	// Sleep is the sleep set in effect immediately after the last
	// prefix decision (the branch that created this subtree).
	Sleep []SleepEntry
	// SleepSets enables sleep-set tracking in the free region.
	SleepSets bool
	// Prune, if non-nil, is consulted at every free-region decision
	// point before picking.
	Prune PruneFunc
	// Budget is reported to Prune (use a large value for unbounded
	// exploration).
	Budget int

	// Taken records the choice made at each decision point.
	Taken []int
	// Fanouts records len(Candidates) at each decision point.
	Fanouts []int
	// Snaps records the free-region decisions (index i corresponds to
	// decision index len(Prefix)+i).
	Snaps []DecisionSnap
	// Clamped reports out-of-range prefix decisions, exactly as for
	// Script: the replay aliases another schedule.
	Clamped bool
	// Pruned reports that Prune cut the run; SleepDeadlock reports that
	// every candidate was asleep (the whole continuation is covered by
	// earlier siblings). Either way Run returns sim.ErrPickAbort.
	Pruned        bool
	SleepDeadlock bool

	pos   int
	sleep []SleepEntry
	// Snapshot arenas: Snaps' Cands and Sleep slices are carved out of
	// these append-only buffers so a steady-state run allocates nothing.
	// Reset truncates them, so snapshots from the previous run must be
	// consumed before the next Reset.
	candArena  []CandSnap
	sleepArena []SleepEntry
}

// Reset rewinds the chooser for a pooled rerun of a new subtree,
// reusing the record buffers and snapshot arenas. SleepSets, Prune and
// Budget keep their configured values; everything else is as in a
// fresh &Reduced{Prefix: prefix, Sleep: sleep}. Snapshots recorded by
// the previous run are invalidated (their arena memory is reused), so
// the caller must have finished generating children from Snaps before
// calling Reset.
func (r *Reduced) Reset(prefix []int, sleep []SleepEntry) {
	r.Prefix = prefix
	r.Sleep = sleep
	r.Taken = r.Taken[:0]
	r.Fanouts = r.Fanouts[:0]
	r.Snaps = r.Snaps[:0]
	r.Clamped = false
	r.Pruned = false
	r.SleepDeadlock = false
	r.pos = 0
	r.sleep = r.sleep[:0]
	r.candArena = r.candArena[:0]
	r.sleepArena = r.sleepArena[:0]
}

// Pick implements sim.Chooser.
func (r *Reduced) Pick(d sim.Decision) int {
	idx := r.pos
	r.pos++
	r.Fanouts = append(r.Fanouts, len(d.Candidates))
	if idx < len(r.Prefix) {
		i := r.Prefix[idx]
		if i >= len(d.Candidates) {
			i = len(d.Candidates) - 1
			r.Clamped = true
		}
		r.Taken = append(r.Taken, i)
		if idx == len(r.Prefix)-1 {
			// Entering the free region: the subtree's inherited sleep
			// set becomes live. Accesses from the branch statement
			// onward arrive in the next decision's Since.
			r.sleep = append(r.sleep[:0], r.Sleep...)
		}
		return i
	}
	if idx == 0 {
		r.sleep = append(r.sleep[:0], r.Sleep...)
	}
	if r.SleepSets {
		r.wake(d)
	}
	// Carve the snapshot out of the arenas; the three-index subslices
	// cap the snapshot at its own length so later arena appends never
	// alias it. If an append reallocates the arena, earlier snapshots
	// keep referencing the retired block, which stays valid and
	// immutable.
	snap := DecisionSnap{Taken: -1}
	cs := len(r.candArena)
	for _, p := range d.Candidates {
		fp, known := p.NextFootprint()
		r.candArena = append(r.candArena, CandSnap{Proc: p.ID(), Processor: p.Processor(), Fp: fp, FpKnown: known, Asleep: r.asleep(p.ID())})
	}
	snap.Cands = r.candArena[cs:len(r.candArena):len(r.candArena)]
	ss := len(r.sleepArena)
	r.sleepArena = append(r.sleepArena, r.sleep...)
	snap.Sleep = r.sleepArena[ss:len(r.sleepArena):len(r.sleepArena)]
	for i := range snap.Cands {
		if snap.Taken < 0 && !snap.Cands[i].Asleep {
			snap.Taken = i
		}
	}
	if snap.Taken < 0 {
		// Every enabled candidate is asleep: every continuation from
		// here is permutation-equivalent to one an earlier sibling
		// subtree explores.
		r.SleepDeadlock = true
		r.Snaps = append(r.Snaps, snap)
		return sim.PickAbort
	}
	if r.Prune != nil && r.Prune(PruneInfo{Decision: d, Taken: r.Taken, Sleep: r.sleep, Budget: r.Budget}) {
		r.Pruned = true
		r.Snaps = append(r.Snaps, snap)
		return sim.PickAbort
	}
	r.Snaps = append(r.Snaps, snap)
	r.Taken = append(r.Taken, snap.Taken)
	return snap.Taken
}

// ReadsSince reports whether Reduced reads Decision.Since: exactly when
// sleep sets are on, since wake is the log's one reader.
func (r *Reduced) ReadsSince() bool { return r.SleepSets }

// wake discards sleep entries invalidated by the accesses executed
// since the previous decision point.
func (r *Reduced) wake(d sim.Decision) {
	if len(r.sleep) == 0 {
		return
	}
	quantum := d.Sys.Quantum()
	live := r.sleep[:0]
	for _, e := range r.sleep {
		woken := false
		for _, a := range d.Since {
			if e.Wakes(a, quantum) {
				woken = true
				break
			}
		}
		if !woken {
			live = append(live, e)
		}
	}
	r.sleep = live
}

func (r *Reduced) asleep(proc int) bool {
	for _, e := range r.sleep {
		if e.Proc == proc {
			return true
		}
	}
	return false
}
