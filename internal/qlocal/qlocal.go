// Package qlocal reconstructs the quantum-scheduled uniprocessor
// primitives of Anderson, Jain & Ott [1] that the paper's Fig. 5 and
// Fig. 7 algorithms consume: Compare-and-Swap (Q-C&S), Fetch-and-
// Increment (Q-F&I), and Load, all implemented from reads and writes
// only, linearizable and wait-free for the processes of one priority
// level on one processor (which are quantum-scheduled with respect to
// one another). Processes at other priority levels may read the object
// with a single register read (WeakRead/Hint), which is the property
// Fig. 5 relies on ("a read is performed by simply reading one shared
// variable").
//
// # Construction
//
// The overview of [1]'s algorithm (its Appendix C) is not part of the
// available paper text, so this package is a reconstruction that
// preserves the interface and the reads/writes-only restriction. State
// changes form a chain of one-shot consensus cells (the paper's Fig. 3
// algorithm, package unicons): cell k decides which operation becomes
// the k-th state transition. A proposal packs (proposer, value), so the
// decided cell simultaneously names the winner and the k-th value;
// losers deterministically republish the decided value to Val[k], making
// blind helper writes safe (all writers write the same word). A packed
// (seq, value) hint register Cur gives other levels a one-statement
// read.
//
// Wait-freedom: a process loses a cell only when another same-level
// process decided it, which (same level, same processor) requires either
// a quantum preemption of the loser or a process frozen mid-operation
// from before the loser began. With quantum Q ≥ MinQuantum the number of
// rounds per operation is bounded by O(1 + same-level preemptions +
// frozen peers) ≤ O(M); see DESIGN.md for the deviation from [1]'s
// constant-time claim.
//
// Safety (linearizability) requires only Q ≥ unicons.MinQuantum, the
// premise of the underlying consensus cells.
//
// The chain uses an idealized unbounded cell array (grown by the runtime
// between atomic statements, never recycled); the paper's bounded-tag
// memory management from [2] is implemented at the Fig. 5 layer.
package qlocal

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// MinQuantum is the smallest quantum for which operations are
// linearizable: the premise of the underlying Fig. 3 cells.
const MinQuantum = unicons.MinQuantum

// RecommendedQuantum bounds every operation to at most three decision
// rounds beyond frozen-peer interference (each round is ≤ ~16
// statements, so at most one same-level preemption can hit a round).
const RecommendedQuantum = 32

// MaxValue is the largest storable value: values occupy the low 32 bits
// of packed words.
const MaxValue = 1<<32 - 1

// Object is a linearizable wait-free single-word object shared by the
// processes of one priority level on one processor. Construct with New;
// mutate with CAS, FetchInc, and Store; read with Load (same level) or
// WeakRead/Hint (any level).
type Object struct {
	name  string
	cells []*unicons.Object // cells[k] decides transition k (index 0 unused)
	vals  []*mem.Reg        // vals[k] holds the k-th value (vals[0] = initial)
	cur   *mem.Reg          // packed (seq, value) hint
	last  map[int]int       // per-process private basis (persists across invocations)
}

// New returns an object holding initial. initial must be ≤ MaxValue.
func New(name string, initial mem.Word) *Object {
	if initial > MaxValue {
		panic(fmt.Sprintf("qlocal: initial value %d exceeds MaxValue", initial))
	}
	o := &Object{
		name:  name,
		cells: []*unicons.Object{nil},
		vals:  []*mem.Reg{mem.NewRegInit(name+".val[0]", initial)},
		cur:   mem.NewRegInit(name+".cur", packCur(0, initial)),
		last:  make(map[int]int),
	}
	return o
}

// packCur packs a (sequence, value) pair into one word.
func packCur(seq int, val mem.Word) mem.Word {
	return mem.Word(seq)<<32 | (val & MaxValue)
}

// UnpackCur splits a packed hint word into (sequence, value). It is
// exported for layers that read the Hint register directly.
func UnpackCur(w mem.Word) (seq int, val mem.Word) {
	return int(w >> 32), w & MaxValue
}

// packProp packs a (proposer, value) proposal into one word. The +1
// keeps every proposal distinct from ⊥ and from raw values.
func packProp(proposer int, val mem.Word) mem.Word {
	return mem.Word(proposer+1)<<32 | (val & MaxValue)
}

func unpackProp(w mem.Word) (proposer int, val mem.Word) {
	return int(w>>32) - 1, w & MaxValue
}

// ensure grows the chain so slot k exists. Growth happens between atomic
// statements (the unbounded-array idealization; see the package
// comment).
func (o *Object) ensure(k int) {
	//repro:bound m+1 the chain grows by at most the slots one operation can traverse: same-level interference plus the target slot (unbounded-array idealization)
	for len(o.cells) <= k {
		i := len(o.cells)
		o.cells = append(o.cells, unicons.New(o.name+".cell["+strconv.Itoa(i)+"]"))
		o.vals = append(o.vals, mem.NewReg(o.name+".val["+strconv.Itoa(i)+"]"))
	}
}

// findLatest walks the chain to the newest published slot and returns
// its index. The read of vals[j+1] = ⊥ is the linearization certificate:
// at that instant the object's value is vals[j].
func (o *Object) findLatest(c *sim.Ctx) int {
	j := o.last[c.ID()]
	if hint, _ := UnpackCur(c.Read(o.cur)); hint > j {
		j = hint
	}
	//repro:bound m slots published past the hint come from same-level deciders: at most one per quantum preemption or frozen peer (Theorem 4's argument)
	for {
		o.ensure(j + 1)
		if c.Read(o.vals[j+1]) == mem.Bottom {
			return j
		}
		j++
	}
}

// valAt reads the value published for slot j (one statement). The slot
// must be published (vals[j] ≠ ⊥); write-once stability makes the read
// safe at any later time.
func (o *Object) valAt(c *sim.Ctx, j int) mem.Word {
	v := c.Read(o.vals[j])
	if v == mem.Bottom {
		panic(fmt.Sprintf("qlocal: %s slot %d read before publication", o.name, j))
	}
	return v
}

// decide runs one decision round at slot j+1 proposing val, publishes
// the decided value, refreshes the hint, and returns the winner and the
// decided value.
func (o *Object) decide(c *sim.Ctx, j int, val mem.Word) (winner int, decided mem.Word) {
	o.ensure(j + 1)
	d := o.cells[j+1].Decide(c, packProp(c.ID(), val))
	winner, decided = unpackProp(d)
	// Helper write: every writer writes the same deterministic word, so
	// blind (possibly stale) writes are harmless.
	c.Write(o.vals[j+1], decided)
	// Hint write: may be stale after a preemption; same-level operations
	// compensate by walking forward, other levels by the Fig. 5 head-scan
	// tolerance.
	c.Write(o.cur, packCur(j+1, decided))
	o.last[c.ID()] = j + 1
	return winner, decided
}

// CAS atomically replaces old with new if the current value is old,
// returning whether it did. new must be ≤ MaxValue.
func (o *Object) CAS(c *sim.Ctx, old, new mem.Word) bool {
	if new > MaxValue {
		panic(fmt.Sprintf("qlocal: CAS new value %d exceeds MaxValue", new))
	}
	//repro:bound m a round is lost only to a same-level decider; losses are bounded by quantum preemptions plus frozen peers (Theorem 4)
	for {
		j := o.findLatest(c)
		if o.valAt(c, j) != old {
			return false
		}
		if winner, _ := o.decide(c, j, new); winner == c.ID() {
			return true
		}
		// Lost the slot to another same-level operation; retry against
		// the new state. Bounded by preemptions plus frozen peers.
	}
}

// FetchInc atomically increments the value and returns the prior value.
func (o *Object) FetchInc(c *sim.Ctx) mem.Word {
	//repro:bound m a round is lost only to a same-level decider; losses are bounded by quantum preemptions plus frozen peers (Theorem 4)
	for {
		j := o.findLatest(c)
		v := o.valAt(c, j)
		if winner, _ := o.decide(c, j, v+1); winner == c.ID() {
			return v
		}
	}
}

// Store atomically sets the value to val.
func (o *Object) Store(c *sim.Ctx, val mem.Word) {
	if val > MaxValue {
		panic(fmt.Sprintf("qlocal: Store value %d exceeds MaxValue", val))
	}
	//repro:bound m a round is lost only to a same-level decider; losses are bounded by quantum preemptions plus frozen peers (Theorem 4)
	for {
		j := o.findLatest(c)
		if winner, decided := o.decide(c, j, val); winner == c.ID() && decided == val {
			return
		}
	}
}

// Load returns the current value, linearized at its internal ⊥-read
// certificate. Only same-level processes may call Load; other levels use
// WeakRead.
func (o *Object) Load(c *sim.Ctx) mem.Word {
	j := o.findLatest(c)
	return o.valAt(c, j)
}

// WeakRead reads the hint register in a single statement, returning a
// (possibly slightly stale) sequence number and value. Any priority
// level may call it.
func (o *Object) WeakRead(c *sim.Ctx) (seq int, val mem.Word) {
	return UnpackCur(c.Read(o.cur))
}

// Hint exposes the packed (seq, value) hint register for layers that
// embed the read in their own statement accounting.
func (o *Object) Hint() *mem.Reg { return o.cur }

// Peek returns the newest published value without executing statements.
// Post-run inspection only.
func (o *Object) Peek() mem.Word {
	for j := len(o.vals) - 1; j >= 0; j-- {
		//repro:allow post-run inspection helper; scans published values after the run completes
		if v := o.vals[j].Load(); v != mem.Bottom {
			return v
		}
	}
	return mem.Bottom
}

// Ops returns the number of published state transitions. Post-run
// inspection only.
func (o *Object) Ops() int {
	n := 0
	for j := 1; j < len(o.vals); j++ {
		//repro:allow post-run inspection helper; counts published transitions after the run completes
		if o.vals[j].Load() != mem.Bottom {
			n++
		}
	}
	return n
}
