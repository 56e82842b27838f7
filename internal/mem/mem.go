// Package mem provides the shared-memory substrate of the simulated
// multiprogrammed system: single-word atomic registers and C-consensus
// primitive objects, exactly as assumed by Anderson & Moir (PODC 1999).
//
// All values are single machine words (uint64). The paper's ⊥ ("bottom",
// no value) is represented by the reserved word Bottom. Registers and
// consensus objects must only be accessed through a sim.Ctx, which
// serializes accesses one atomic statement at a time; the Load/Store/
// Invoke methods here are therefore unsynchronized by design.
package mem

import (
	"fmt"
	"strconv"
)

// Word is the unit of shared storage. The paper packs whole records
// (e.g. Fig. 5's hdtype = (id, tag, last)) into one word; packages
// layering on mem do the same with bit fields.
type Word = uint64

// Bottom is the reserved word representing ⊥ (no value). No algorithm
// input value may equal Bottom; the paper makes the same assumption
// ("we assume no input value ... is ⊥").
const Bottom Word = ^Word(0)

// Reg is a single-word shared register supporting atomic read and write.
// The zero value is unusable; construct with NewReg or NewRegInit.
type Reg struct {
	name string
	id   uint64
	cell int
	v    Word
	init Word
}

// NewReg returns a register initialized to Bottom (⊥).
func NewReg(name string) *Reg {
	return NewRegInit(name, Bottom)
}

// NewRegInit returns a register initialized to v.
func NewRegInit(name string, v Word) *Reg {
	return &Reg{name: name, id: HashName(name), cell: -1, v: v, init: v}
}

// Name returns the register's diagnostic name.
func (r *Reg) Name() string { return r.name }

// Footprint returns the canonical footprint of one access of the given
// kind to this register.
func (r *Reg) Footprint(kind AccessKind) Footprint {
	return Footprint{Obj: r.id, Cell: r.cell, Kind: kind}
}

// StateHash returns this register's contribution to the memory-state
// fingerprint: 0 while the register holds its initial value, else a
// stable hash of (id, value). Because untouched objects contribute
// nothing, XOR-combining StateHash over any superset of the touched
// objects yields the same fingerprint for equal memory states,
// independent of access order.
func (r *Reg) StateHash() uint64 {
	if r.v == r.init {
		return 0
	}
	return Mix(r.id, r.v)
}

// Load returns the register's current value. It must only be called
// while holding the statement baton (i.e. from sim.Ctx) or after the
// simulation has completed.
func (r *Reg) Load() Word { return r.v }

// Store sets the register's value. The same access discipline as Load
// applies.
func (r *Reg) Store(v Word) { r.v = v }

// Reset restores the register to its initial value, for pooled reruns
// (sim.System.OnReset hooks). Must not be called mid-run.
func (r *Reg) Reset() { r.v = r.init }

// ResetRegs resets every register in a slice (NewRegArray layouts).
func ResetRegs(rs []*Reg) {
	for _, r := range rs {
		r.Reset()
	}
}

// NewRegArray allocates n registers named name[0..n-1], all ⊥.
func NewRegArray(name string, n int) []*Reg {
	return NewRegArrayInit(name, n, Bottom)
}

// NewRegArrayInit allocates n registers initialized to v.
func NewRegArrayInit(name string, n int, v Word) []*Reg {
	rs := make([]*Reg, n)
	for i := range rs {
		rs[i] = NewRegInit(indexed(name, i), v)
		rs[i].cell = i
	}
	return rs
}

// indexed returns name[i], the name of element i of an array named
// name. It concatenates: objects created lazily build their names on
// the statement path, where fmt's formatting shows in profiles.
func indexed(name string, i int) string { return name + "[" + strconv.Itoa(i) + "]" }

// NewRegMatrix allocates an n×m matrix of registers, all ⊥.
func NewRegMatrix(name string, n, m int) [][]*Reg {
	rows := make([][]*Reg, n)
	for i := range rows {
		rows[i] = make([]*Reg, m)
		for j := range rows[i] {
			rows[i][j] = NewReg(indexed(indexed(name, i), j))
			rows[i][j].cell = i*m + j
		}
	}
	return rows
}

// NewRegMatrixInit allocates an n×m matrix of registers initialized to v.
func NewRegMatrixInit(name string, n, m int, v Word) [][]*Reg {
	rows := make([][]*Reg, n)
	for i := range rows {
		rows[i] = make([]*Reg, m)
		for j := range rows[i] {
			rows[i][j] = NewRegInit(indexed(indexed(name, i), j), v)
			rows[i][j].cell = i*m + j
		}
	}
	return rows
}

// ConsObject is a primitive object with consensus number C, following
// the formal model of §4.1/Appendix A of the paper: the first invocation
// decides its proposed value; invocations 2..C return the decided value;
// every invocation after the C-th returns ⊥ ("no useful information").
// An invocation is a single atomic statement.
type ConsObject struct {
	name        string
	id          uint64
	cell        int
	c           int
	invocations int
	decided     Word
}

// NewConsObject returns a fresh C-consensus object. c must be ≥ 1.
func NewConsObject(name string, c int) *ConsObject {
	if c < 1 {
		panic(fmt.Sprintf("mem: consensus number must be >= 1, got %d", c))
	}
	return &ConsObject{name: name, id: HashName(name), cell: -1, c: c, decided: Bottom}
}

// Name returns the object's diagnostic name.
func (o *ConsObject) Name() string { return o.name }

// Footprint returns the canonical footprint of one invocation of this
// object. Invocations are read-modify-writes whose responses depend on
// order, so the kind is always AccessCons: no two invocations of the
// same object ever commute.
func (o *ConsObject) Footprint() Footprint {
	return Footprint{Obj: o.id, Cell: o.cell, Kind: AccessCons}
}

// StateHash returns this object's contribution to the memory-state
// fingerprint: 0 while never invoked, else a stable hash of (id,
// invocation count, decided value). See Reg.StateHash.
func (o *ConsObject) StateHash() uint64 {
	if o.invocations == 0 {
		return 0
	}
	return Mix(Mix(o.id, uint64(o.invocations)), o.decided)
}

// C returns the object's consensus number.
func (o *ConsObject) C() int { return o.c }

// Invocations returns how many times the object has been invoked.
func (o *ConsObject) Invocations() int { return o.invocations }

// Decided returns the decided value, or Bottom if never invoked.
func (o *ConsObject) Decided() Word { return o.decided }

// Invoke performs one invocation proposing v and returns the object's
// response under the paper's invocation-limit semantics. It must only be
// called while holding the statement baton (via sim.Ctx).
func (o *ConsObject) Invoke(v Word) Word {
	o.invocations++
	if o.invocations == 1 {
		o.decided = v
	}
	if o.invocations > o.c {
		return Bottom
	}
	return o.decided
}

// Reset restores the object to its never-invoked state, for pooled
// reruns (sim.System.OnReset hooks). Must not be called mid-run.
func (o *ConsObject) Reset() {
	o.invocations = 0
	o.decided = Bottom
}

// NewConsArray allocates n C-consensus objects named name[0..n-1].
func NewConsArray(name string, n, c int) []*ConsObject {
	os := make([]*ConsObject, n)
	for i := range os {
		os[i] = NewConsObject(indexed(name, i), c)
		os[i].cell = i
	}
	return os
}
