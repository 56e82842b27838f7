package hybridcas

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Storage reclamation.
//
// The paper bounds Fig. 5's storage with the 4N+2-tag recycling of [2],
// which is interlocked with its exactly-one-behind head invariant. This
// implementation's stale-tolerant scan walks forward instead, so it uses
// a different scheme: quiescence floors.
//
//   - An operation X first reads the global Floor register and publishes
//     that basis b_X in its Active register. Then it reads the V head
//     hints and raises its Active register to m_X, the depth of the
//     shallowest hinted cell. Only then does it walk, append and update
//     its level's head. It clears the register when it returns.
//   - When an owner has retired `threshold` linked cells, it runs a
//     pass. The pass reads every hint (H1), every Active register in
//     process order (A1), every hint again (H2) and every Active register
//     again (A2). Its floor F is the least depth among the hinted cells
//     and the non-idle Active values it read. It writes F to the Floor
//     register and frees its own retired cells strictly below F. A pass
//     preempted before that write may land it late, over a newer pass's
//     floor; Claim B below holds for whichever pass wrote last.
//   - Cells that lost their append (never linked) are referenced only by
//     their owner and are freed when the operation returns.
//
// Why no hint and no operation ever names a freed cell. Statements are
// atomic and totally ordered. A cell's depth is fixed before any
// register names it, and depths grow along the chain. The values head
// object Hd[v] takes, slot by slot, name strictly deeper cells, because
// updateHd only installs a deeper cell. So every cell X touches is at
// least m_X deep: the hinted cells, the walk and the head (at or past
// the deepest hint), and the cell updateHd's Load returns (Hd[pri]'s
// latest value, no shallower than the Hd[pri] hint X read).
//
// A hint moves backwards only by a rewind. A qlocal decider D of level
// v certifies that slot j is the latest, decides slot j+1 and writes the
// hint (j+1, K) last; by then other deciders may have advanced the hint.
// From its certificate to that write D is pending. D's scan read the
// Hd[v] hint at slot j or earlier, so D's Active register holds
// m_D < depth(K) throughout. Hence:
//
//	(R) If the level-v hint is shallower at time t2 than at t1 < t2,
//	    the decider that wrote its value at t2 was pending at t1, and
//	    its Active register held less than that value's depth all along.
//
// Claim A: once a pass has read level v's hint in H2, that hint never
// names a cell shallower than the pass's F. Suppose it does, at a later
// time. By (R) applied to the H2 read, a decider D pending at H2 wrote
// that value, cell K. Say D certified its slot before A1 read D's
// register. Then D was pending at that read, because A1 precedes H2,
// and F ≤ m_D < depth(K). Otherwise D certified its slot after A1, so
// after H1, and K is deeper than the cell H1 read: depth(K) > F. So a
// rewound hint is caught by D's register while D is pending, by H1 when
// D certified after A1, and by H2 itself when the rewind lands before
// H2.
//
// Claim B: no operation touches a cell after a pass freed it. Let X
// touch a cell after a pass with floor F freed it. The basis b_X is 0,
// or the F of the pass that last wrote the Floor register before X read
// it. X reads every hint later than that pass's H2, so by Claim A
// b_X ≤ m_X. Every value X's Active register holds is therefore at most
// the depth of every cell X touches.
//   - If the pass read X's register in A1 or A2 while X was published,
//     F is at most that value, and X touches nothing shallower than F.
//   - Otherwise X was still running at A2, since it touches a cell after
//     the free. So X published after A2 read its register, and read
//     every hint after H2. By Claim A, m_X ≥ F.
//
// Either way the freed cell, shallower than F, is not one X touches.
//
// A2 is what catches a missed publication. Without it, an operation
// that publishes after A1 read its register could read a rewound hint
// between A1 and H2. A later decider could then overwrite that hint
// before H2 reads it, and the pass would free the cell the operation
// holds; TestReclaimSecondActiveScan plays that interleaving with three
// processes. A pass's own hint reads never name a freed cell either: by
// Claim A, for every earlier pass. hintDepth and Peek panic if one
// does. A crashed process leaves its Active register published, which
// only lowers every later floor, and a crashed decider never rewinds.
//
// Unlike [2]'s scheme the bound is not worst-case: a process frozen
// mid-operation pins cells appended during its preemption window, and —
// because every level's current head hint is a live reference — a
// priority level that stops accessing the object pins everything at and
// above its last hint (the same failure mode as a stalled reader in
// epoch-based reclamation). Correctness never depends on reclamation
// progress; storage stays O(N + V + threshold) while all levels keep
// operating. TestReclaimBoundedMemory pins this empirically and the
// full correctness suite re-runs against the reclaiming object.

// idleBasis marks an Active register as "no operation in flight".
const idleBasis = mem.Bottom

// reclaimState is attached to an Object when reclamation is enabled.
type reclaimState struct {
	threshold int
	floorReg  *mem.Reg             // global floor (depth): the last pass's F, the basis later operations publish
	active    []*mem.Reg           // active[id]: process id's published basis, one per process
	depths    map[cellKey]mem.Word // owner-known depth of each linked cell
	retired   map[int][]cellKey    // linked cells eligible for floor-based freeing, per owner
	freed     int
}

// NewReclaiming returns a Fig. 5 C&S object that additionally bounds its
// storage with quiescence-floor reclamation. procs is the number of
// processes that may access it, IDs 0..procs-1: each gets its Active
// register here, so a reclamation pass scans every process, including
// one that has not yet begun an operation. threshold is the number of
// retired cells an owner accumulates before it runs a reclamation pass
// (≥ 1; higher amortizes the pass's O(N+V) statements over more
// operations).
func NewReclaiming(name string, levels, procs int, initial mem.Word, threshold int) *Object {
	if threshold < 1 {
		panic(fmt.Sprintf("hybridcas: reclaim threshold must be >= 1, got %d", threshold))
	}
	if procs < 1 || procs > maxProcs {
		panic(fmt.Sprintf("hybridcas: reclaiming object needs 1..%d processes, got %d", maxProcs, procs))
	}
	o := New(name, levels, initial)
	o.rec = &reclaimState{
		threshold: threshold,
		floorReg:  mem.NewRegInit(name+".floor", 0),
		active:    make([]*mem.Reg, procs),
		depths:    make(map[cellKey]mem.Word),
		retired:   make(map[int][]cellKey),
	}
	for id := range o.rec.active {
		o.rec.active[id] = mem.NewReg("active[" + strconv.Itoa(id) + "]")
	}
	return o
}

// LiveCells returns the number of allocated cells. Post-run inspection
// only.
func (o *Object) LiveCells() int { return len(o.cells) }

// FreedCells returns how many cells reclamation has freed. Post-run
// inspection only.
func (o *Object) FreedCells() int {
	if o.rec == nil {
		return 0
	}
	return o.rec.freed
}

// activeReg returns the caller's Active register.
func (r *reclaimState) activeReg(id int) *mem.Reg {
	if id >= len(r.active) {
		panic(fmt.Sprintf("hybridcas: process id %d outside the %d processes the reclaiming object was built for", id, len(r.active)))
	}
	return r.active[id]
}

// beginOp publishes the caller's basis. Must run before any head-hint
// read. Two statements.
func (o *Object) beginOp(c *sim.Ctx) {
	if o.rec == nil {
		return
	}
	basis := c.Read(o.rec.floorReg)
	c.Write(o.rec.activeReg(c.ID()), basis)
}

// endOp clears the caller's Active register and retires cells. One
// statement plus an amortized reclamation pass.
func (o *Object) endOp(c *sim.Ctx, appended *cellKey, unlinked []cellKey) {
	if o.rec == nil {
		return
	}
	r := o.rec
	// Unlinked cells were never published; only the owner references
	// them, so they free immediately (runtime-side).
	//repro:bound 1 an operation unlinks at most its own unpublished cell
	for _, k := range unlinked {
		delete(o.cells, k)
		delete(r.depths, k)
		r.freed++
	}
	if appended != nil {
		r.retired[c.ID()] = append(r.retired[c.ID()], *appended)
	}
	c.Write(r.activeReg(c.ID()), idleBasis)
	if len(r.retired[c.ID()]) >= r.threshold {
		o.reclaimPass(c)
	}
}

// reclaimPass recomputes the global floor and frees the caller's retired
// cells strictly below it. It reads the hints, the Active registers, the
// hints again and the Active registers again; the header says why each
// read is needed. 2(N + V) + 1 statements, amortized over `threshold`
// operations.
func (o *Object) reclaimPass(c *sim.Ctx) {
	r := o.rec
	floor := mem.Word(1<<32 - 1)
	floor = o.hintFloor(c, floor)
	floor = r.activeFloor(c, floor)
	floor = o.hintFloor(c, floor)
	floor = r.activeFloor(c, floor)
	// Publish the floor as the basis of later operations. Any pass's
	// floor is a safe basis (header, Claim B), so a late write is too.
	c.Write(r.floorReg, floor)
	// Free own retired cells strictly below the floor.
	kept := r.retired[c.ID()][:0]
	//repro:bound threshold+1 retired cells drain every threshold operations, so at most threshold plus the cell retired this call accumulate
	for _, k := range r.retired[c.ID()] {
		if r.depths[k] < floor {
			delete(o.cells, k)
			delete(r.depths, k)
			r.freed++
		} else {
			kept = append(kept, k)
		}
	}
	r.retired[c.ID()] = kept
}

// hintFloor lowers floor to the depth of every level's current hint: a
// hint is a live reference. V statements.
func (o *Object) hintFloor(c *sim.Ctx, floor mem.Word) mem.Word {
	for v := 1; v <= o.levels; v++ {
		_, hv := o.hd[v].WeakRead(c)
		if d := o.hintDepth(unpackKey(hv)); d < floor {
			floor = d
		}
	}
	return floor
}

// activeFloor lowers floor to every in-flight operation's published
// basis, reading the Active registers in process order. N statements.
func (r *reclaimState) activeFloor(c *sim.Ctx, floor mem.Word) mem.Word {
	//repro:bound n one Active register per process
	for _, reg := range r.active {
		if a := c.Read(reg); a != idleBasis && a < floor {
			floor = a
		}
	}
	return floor
}

// hintDepth returns the depth of the cell a hint names, from the
// owners' record (runtime-side). It fails loudly if the cell was freed:
// no hint may name a freed cell (see the header).
func (o *Object) hintDepth(k cellKey) mem.Word {
	if k == (cellKey{}) {
		return 0 // genesis
	}
	d, ok := o.rec.depths[k]
	if !ok {
		panic(fmt.Sprintf("hybridcas: %s: hint names freed cell (%d,%d) — reclamation invariant violated", o.name, k.id, k.tag))
	}
	return d
}

// noteDepth records a linked cell's depth for the owner (runtime-side;
// the owner just wrote the depth register itself).
func (o *Object) noteDepth(k cellKey, d mem.Word) {
	if o.rec != nil {
		o.rec.depths[k] = d
	}
}

// cellAt returns the live cell for k, failing loudly if reclamation ever
// freed a still-reachable cell (the invariant the scheme must uphold).
func (o *Object) cellAt(k cellKey) *cell {
	cl := o.cells[k]
	if cl == nil {
		panic(fmt.Sprintf("hybridcas: %s: reclaimed cell (%d,%d) accessed — reclamation invariant violated", o.name, k.id, k.tag))
	}
	return cl
}
