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
// a different — simpler to prove — scheme: quiescence floors.
//
//   - Every operation first reads the global Floor register and
//     publishes it in its Active register, then (and only then) acquires
//     cell references from the head hints. Any key a hint can ever yield
//     has depth ≥ the global floor at acquisition time, and the floor
//     cannot advance past a published Active basis, so published-active
//     operations pin every cell they could reach.
//   - When an owner has retired enough linked cells, it recomputes the
//     floor as the minimum over all Active registers and all current
//     hint depths, advances the Floor register, and frees its own cells
//     strictly below the floor. A stale (preempted) Floor write can only
//     rewind the floor, which is conservative and therefore safe.
//   - Cells that lost their append (never linked) are referenced only by
//     their owner and are freed when the operation returns.
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
	floorReg  *mem.Reg             // global floor (depth); advances, stale rewinds are safe
	active    map[int]*mem.Reg     // per-process published basis
	depths    map[cellKey]mem.Word // owner-known depth of each linked cell
	retired   map[int][]cellKey    // linked cells eligible for floor-based freeing, per owner
	freed     int
}

// NewReclaiming returns a Fig. 5 C&S object that additionally bounds its
// storage with quiescence-floor reclamation. threshold is the number of
// retired cells an owner accumulates before it runs a reclamation pass
// (≥ 1; higher amortizes the pass's O(N+V) statements over more
// operations).
func NewReclaiming(name string, levels int, initial mem.Word, threshold int) *Object {
	if threshold < 1 {
		panic(fmt.Sprintf("hybridcas: reclaim threshold must be >= 1, got %d", threshold))
	}
	o := New(name, levels, initial)
	o.rec = &reclaimState{
		threshold: threshold,
		floorReg:  mem.NewRegInit(name+".floor", 0),
		active:    make(map[int]*mem.Reg),
		depths:    make(map[cellKey]mem.Word),
		retired:   make(map[int][]cellKey),
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

// activeReg returns (lazily creating) the caller's Active register.
func (r *reclaimState) activeReg(id int) *mem.Reg {
	reg, ok := r.active[id]
	if !ok {
		reg = mem.NewReg("active[" + strconv.Itoa(id) + "]")
		r.active[id] = reg
	}
	return reg
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
// cells strictly below it. O(N + V) statements, amortized over
// `threshold` operations.
func (o *Object) reclaimPass(c *sim.Ctx) {
	r := o.rec
	floor := mem.Word(1<<32 - 1)
	// Every in-flight operation pins depths down to its published basis.
	//repro:bound n one Active register per process
	for id := range r.active {
		if a := c.Read(r.active[id]); a != idleBasis && a < floor {
			floor = a
		}
	}
	// Every current hint is a live reference.
	for v := 1; v <= o.levels; v++ {
		_, hv := o.hd[v].WeakRead(c)
		k := unpackKey(hv)
		switch d, ok := r.depths[k]; {
		case ok && d < floor:
			floor = d
		case !ok && k == (cellKey{}):
			floor = 0 // genesis still hinted
		case !ok:
			panic(fmt.Sprintf("hybridcas: %s: hint names unknown cell (%d,%d)", o.name, k.id, k.tag))
		}
	}
	// Advance the global floor. A concurrent (or later, stale) write can
	// only lower it, which merely delays reclamation.
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
