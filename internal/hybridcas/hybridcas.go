// Package hybridcas implements the paper's Fig. 5 result (Theorem 2):
// a linearizable, wait-free Compare-and-Swap object — with Read — for
// any number of processes across V priority levels on one
// hybrid-scheduled uniprocessor, built from reads and writes only, with
// per-operation statement cost linear in V.
//
// # Architecture (following Fig. 5)
//
// The object is Herlihy's append-to-a-list construction specialized to
// C&S: a linked list of cells, one per successful nontrivial operation.
// Each cell's nxt pointer is a consensus object implemented by the
// Fig. 3 read/write algorithm (package unicons), which is correct across
// all priority levels of a hybrid-scheduled uniprocessor. As in the
// paper, helping is unnecessary: if another process appends first, a
// pending C&S may simply fail, because a successful nontrivial C&S
// linearizes in between.
//
// The list head is located through one head variable per priority level
// (the paper's Hd[1..V]). Each Hd[v] is updated only by processes of
// level v — which are quantum-scheduled with respect to one another —
// using the level-local Q-C&S of package qlocal, and is read by other
// levels with a single register read. Head depth is stored in each cell
// so a scan can start from the deepest of the V hints and walk nxt
// pointers forward to the true head.
//
// # Deviations from the paper's pseudocode
//
// The available text of Fig. 5 is OCR-degraded (comparison operators are
// missing), so this is a faithful reconstruction of the architecture
// rather than a line-by-line port; the exhaustive checker in
// internal/check validates it. Differences:
//
//   - The scan tolerates arbitrarily stale head hints by walking nxt
//     pointers, instead of the paper's exactly-one-behind invariant and
//     Feedback/Seen machinery; cost is O(V + walk) where the walk is
//     bounded by the interference overlapping the operation, preserving
//     wait-freedom and the linear-in-V shape (E4 in EXPERIMENTS.md).
//   - Cell storage uses fresh (process, tag) names with a monotone
//     per-process tag instead of the bounded 4N+2-tag recycling of [2];
//     see DESIGN.md's substitution table.
//
// Safety requires only Q ≥ MinQuantum (the Fig. 3 premise).
package hybridcas

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/qlocal"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// MinQuantum is the smallest quantum for which operations are
// linearizable: the premise of the underlying Fig. 3 consensus cells.
const MinQuantum = unicons.MinQuantum

// RecommendedQuantum keeps the number of retry rounds per operation
// small (at most one same-level preemption per head-update round).
const RecommendedQuantum = qlocal.RecommendedQuantum

// Packing limits for cell names: a cell name (id+1, tag) must fit the
// 32-bit qlocal value domain of the head variables.
const (
	maxProcs      = 1<<12 - 2 // id+1 in 12 bits
	maxTagsPerOp  = 1<<20 - 1 // tag in 20 bits
	genesisPacked = 0         // (id 0, tag 0): the genesis cell's name
)

type cellKey struct {
	id  int // owner process ID + 1; 0 is the genesis pseudo-process
	tag int
}

// packKey packs a cell name into the low 32 bits of a word.
func packKey(k cellKey) mem.Word {
	return mem.Word(k.id)<<20 | mem.Word(k.tag)
}

func unpackKey(w mem.Word) cellKey {
	return cellKey{id: int(w >> 20 & 0xFFF), tag: int(w & 0xFFFFF)}
}

// cell is one list cell: val is the object value after the cell's
// operation, nxt decides the successor cell, depth is the cell's
// position in the chain (written before the cell can be referenced).
type cell struct {
	val   *mem.Reg
	nxt   *unicons.Object
	depth *mem.Reg
}

// Object is a Fig. 5 compare-and-swap object for one hybrid-scheduled
// processor with V priority levels. Construct with New. All accessing
// processes must run on the same processor with priorities in 1..V.
type Object struct {
	name   string
	levels int
	hd     []*qlocal.Object // hd[v] for v in 1..V (index 0 unused)
	cells  map[cellKey]*cell
	tags   map[int]int // per-process next tag (private variables)

	rec *reclaimState // nil unless built with NewReclaiming

	// stats
	maxWalk int
	appends int
}

// New returns a C&S object over V priority levels holding initial. The
// list starts "as if some process had previously performed a successful
// C&S in isolation" (the genesis cell), exactly as the paper assumes.
func New(name string, levels int, initial mem.Word) *Object {
	if levels < 1 {
		panic(fmt.Sprintf("hybridcas: need >= 1 priority level, got %d", levels))
	}
	o := &Object{
		name:   name,
		levels: levels,
		hd:     make([]*qlocal.Object, levels+1),
		cells:  make(map[cellKey]*cell),
		tags:   make(map[int]int),
	}
	g := cellKey{id: 0, tag: 0}
	o.cells[g] = &cell{
		val:   mem.NewRegInit(name+".cell[g].val", initial),
		nxt:   unicons.New(name + ".cell[g].nxt"),
		depth: mem.NewRegInit(name+".cell[g].depth", 0),
	}
	for v := 1; v <= levels; v++ {
		o.hd[v] = qlocal.New(name+".Hd["+strconv.Itoa(v)+"]", genesisPacked)
	}
	return o
}

// newCell allocates the caller's next cell. Allocation is runtime-side
// (the unbounded-name idealization); the cell becomes visible to the
// algorithm only through subsequently written registers.
func (o *Object) newCell(id int) (cellKey, *cell) {
	if id+1 > maxProcs {
		panic(fmt.Sprintf("hybridcas: process id %d exceeds packing limit", id))
	}
	tag := o.tags[id]
	if tag > maxTagsPerOp {
		panic(fmt.Sprintf("hybridcas: process %d exhausted %d tags", id, maxTagsPerOp))
	}
	o.tags[id] = tag + 1
	k := cellKey{id: id + 1, tag: tag}
	name := o.name + ".cell[" + strconv.Itoa(k.id) + "," + strconv.Itoa(k.tag) + "]"
	cl := &cell{
		val:   mem.NewReg(name + ".val"),
		nxt:   unicons.New(name + ".nxt"),
		depth: mem.NewReg(name + ".depth"),
	}
	o.cells[k] = cl
	return k, cl
}

// findHead scans the V head hints (one register read each), picks the
// deepest referenced cell, and walks nxt pointers to the current head.
// The returned key's cell had an undecided nxt at the moment of the
// final ⊥-read — the linearization certificate for trivial outcomes.
func (o *Object) findHead(c *sim.Ctx) cellKey {
	best := cellKey{id: 0, tag: 0}
	bestDepth := mem.Word(0)
	minDepth := mem.Word(1<<32 - 1)
	for v := 1; v <= o.levels; v++ {
		_, hv := o.hd[v].WeakRead(c) // 1 statement
		k := unpackKey(hv)
		d := c.Read(o.cellAt(k).depth) // 1 statement
		if d >= bestDepth {
			best, bestDepth = k, d
		}
		if d < minDepth {
			minDepth = d
		}
	}
	// With reclamation on, raise the published basis to the scan's
	// minimum candidate depth: every reference this operation can still
	// hold is at least that deep, so the floor may advance behind it.
	if o.rec != nil {
		c.Write(o.rec.activeReg(c.ID()), minDepth)
	}
	walk := 0
	k := best
	//repro:bound n the nxt chain beyond the hint grows only by appends overlapping this walk, at most one per process (invariant E4)
	for {
		nxt := o.cellAt(k).nxt.ReadValue(c)
		if nxt == mem.Bottom {
			if walk > o.maxWalk {
				o.maxWalk = walk
			}
			return k
		}
		k = unpackKey(nxt)
		walk++
	}
}

// CompareAndSwap atomically replaces the object's value with new if it
// currently equals old, returning whether it did (the paper's C&S
// procedure). Values may be any word except ⊥.
func (o *Object) CompareAndSwap(c *sim.Ctx, old, new mem.Word) bool {
	o.checkPri(c)
	if old == mem.Bottom || new == mem.Bottom {
		panic("hybridcas: ⊥ is not a storable value")
	}
	o.beginOp(c)
	ok, appended, key := o.cas(c, old, new)
	if appended {
		o.endOp(c, &key, nil)
	} else {
		o.endOp(c, nil, []cellKey{key})
	}
	return ok
}

// cas is the operation body; it reports whether the C&S succeeded and
// whether the caller's cell was appended to the list.
func (o *Object) cas(c *sim.Ctx, old, new mem.Word) (ok, appended bool, key cellKey) {
	// Initialize a fresh cell (paper lines 8-12); nxt starts ⊥ by
	// construction.
	key, cl := o.newCell(c.ID())
	c.Write(cl.val, new)

	hk := o.findHead(c)
	h := o.cellAt(hk)
	hv := c.Read(h.val)
	// Trivial cases (paper lines 26-27), linearized at the head
	// certificate.
	if hv != old {
		return false, false, key
	}
	if old == new {
		return true, false, key
	}
	// Nontrivial: append by deciding the head's nxt pointer (line 37).
	hd := c.Read(h.depth)
	c.Write(cl.depth, hd+1)
	o.noteDepth(key, hd+1)
	if h.nxt.Decide(c, packKey(key)) != packKey(key) {
		// Another nontrivial C&S appended first and linearizes between
		// our certificate and now; fail (paper line 45).
		return false, false, key
	}
	o.appends++
	o.updateHd(c, key, hd+1)
	return true, true, key
}

// Read returns the object's current value (the paper's Read procedure),
// linearized at the head certificate inside findHead.
func (o *Object) Read(c *sim.Ctx) mem.Word {
	o.checkPri(c)
	o.beginOp(c)
	hk := o.findHead(c)
	v := c.Read(o.cellAt(hk).val)
	o.endOp(c, nil, nil)
	return v
}

// updateHd advances the caller's level's head variable to the appended
// cell (paper lines 38-43). Hd[pri] is monotone in depth: the CAS basis
// is a linearizable Load, and deeper updates win.
func (o *Object) updateHd(c *sim.Ctx, key cellKey, depth mem.Word) {
	pri := c.Pri()
	//repro:bound n a lost CAS means another process advanced Hd[pri] past this depth; each overlapping process can defeat the update at most once
	for {
		cur := o.hd[pri].Load(c)
		if d := c.Read(o.cellAt(unpackKey(cur)).depth); d >= depth {
			return // a newer same-level append already advanced Hd
		}
		if o.hd[pri].CAS(c, cur, packKey(key)) {
			return
		}
		// CAS lost to a concurrent same-level update; bounded by the
		// caller's preemptions (Axiom 2) plus frozen peers.
	}
}

func (o *Object) checkPri(c *sim.Ctx) {
	if c.Pri() < 1 || c.Pri() > o.levels {
		panic(fmt.Sprintf("hybridcas: process priority %d outside 1..%d", c.Pri(), o.levels))
	}
}

// Peek returns the object's current value by chasing decided nxt
// pointers. Post-run inspection only. For a reclaiming object the walk
// starts from the deepest live hint (earlier cells may have been
// freed); otherwise from genesis.
func (o *Object) Peek() mem.Word {
	k := cellKey{id: 0, tag: 0}
	if o.rec != nil {
		best := mem.Word(0)
		for v := 1; v <= o.levels; v++ {
			//repro:allow post-run Peek walks hint registers only after the run completes
			_, hv := qlocal.UnpackCur(o.hd[v].Hint().Load())
			hk := unpackKey(hv)
			if d := o.rec.depths[hk]; d >= best {
				best, k = d, hk
			}
		}
	}
	//repro:bound unbounded post-run walk over the whole applied-ops chain; never executed during a run
	for {
		cl := o.cellAt(k)
		nxt := cl.nxt.Peek()
		if nxt == mem.Bottom {
			//repro:allow post-run Peek reads the chain tail only after the run completes
			return cl.val.Load()
		}
		k = unpackKey(nxt)
	}
}

// ChainLen returns the number of successful nontrivial operations
// applied. Post-run inspection only.
func (o *Object) ChainLen() int {
	if o.rec != nil {
		return o.appends
	}
	n := 0
	k := cellKey{id: 0, tag: 0}
	//repro:bound unbounded post-run walk over the whole applied-ops chain; never executed during a run
	for {
		nxt := o.cells[k].nxt.Peek()
		if nxt == mem.Bottom {
			return n
		}
		k = unpackKey(nxt)
		n++
	}
}

// MaxWalk returns the longest head walk observed — the empirical bound
// on hint staleness. Post-run inspection only.
func (o *Object) MaxWalk() int { return o.maxWalk }

// Levels returns V, the number of priority levels the object serves.
func (o *Object) Levels() int { return o.levels }
