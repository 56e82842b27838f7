// Package universal provides wait-free universal constructions layered
// on the paper's consensus algorithms, making the headline result
// executable: on a hybrid-scheduled system, consensus-number-P objects
// (or just reads and writes on one processor) are universal for any
// number of processes.
//
// Two constructions are provided:
//
//   - Object: a uniprocessor universal object for all priority levels of
//     one hybrid-scheduled processor, built purely from reads and writes
//     (Fig. 3 consensus cells chained Herlihy-style).
//   - MultiObject: a multiprocessor universal object whose per-slot
//     decisions are full Fig. 7 consensus instances over C-consensus
//     objects (C ≥ P), demonstrating Theorem 4's universality across
//     processors.
//
// Concrete shared objects (Counter, Queue) are built on top and used by
// the examples.
package universal

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// Apply is the deterministic sequential specification of an implemented
// object: it applies op to state, returning the new state and the
// operation's return value. It must be a pure function that never
// mutates its argument and never returns a nil state; it runs as
// private computation (no shared-memory statements).
type Apply func(state any, op mem.Word) (newState any, ret mem.Word)

// decider abstracts the per-slot consensus flavor.
type decider interface {
	decide(c *sim.Ctx, proposal mem.Word) mem.Word
	peek() mem.Word
}

type uniSlot struct{ o *unicons.Object }

func (s uniSlot) decide(c *sim.Ctx, p mem.Word) mem.Word { return s.o.Decide(c, p) }
func (s uniSlot) peek() mem.Word                         { return s.o.Peek() }

type multiSlot struct {
	a       *multicons.Algorithm
	decided *mem.Reg // published decision cache (one per processor would be
	// faithful; a single register is written with the identical decided
	// word by every finisher, so blind writes are safe)
}

func (s multiSlot) decide(c *sim.Ctx, p mem.Word) mem.Word {
	// Fast path: someone already published this slot's decision.
	if v := c.Read(s.decided); v != mem.Bottom {
		return v
	}
	v := s.a.Decide(c, p)
	c.Write(s.decided, v)
	return v
}

func (s multiSlot) peek() mem.Word {
	//repro:allow post-run inspection: PeekState replays decided slots only after the run completes
	return s.decided.Load()
}

// core is the shared chain logic: slot k's consensus decides the k-th
// operation as a packed (proposer, op) word; state is reconstructed by
// deterministic replay with memoization.
type core struct {
	name    string
	newSlot func(i int) decider
	apply   Apply

	slots  []decider
	vals   []*mem.Reg // vals[k] ≠ ⊥ once slot k's decision is published
	states []any      // memoized state after k ops (derived data)
	rets   []mem.Word // memoized return of op k (derived data)
	last   map[int]int
}

func newCore(name string, initial any, apply Apply, newSlot func(i int) decider) *core {
	return &core{
		name:    name,
		newSlot: newSlot,
		apply:   apply,
		slots:   []decider{nil},
		vals:    []*mem.Reg{mem.NewRegInit(name+".val[0]", 0)},
		states:  []any{initial},
		rets:    []mem.Word{0},
		last:    make(map[int]int),
	}
}

const maxOp = 1<<32 - 1

func packProp(proposer int, op mem.Word) mem.Word {
	return mem.Word(proposer+1)<<32 | (op & maxOp)
}

func unpackProp(w mem.Word) (proposer int, op mem.Word) {
	return int(w>>32) - 1, w & maxOp
}

func (u *core) ensure(k int) {
	//repro:bound n the chain grows by at most the slots one operation can traverse: one per concurrent process plus the target slot (unbounded-array idealization)
	for len(u.slots) <= k {
		i := len(u.slots)
		u.slots = append(u.slots, u.newSlot(i))
		u.vals = append(u.vals, mem.NewReg(u.name+".val["+strconv.Itoa(i)+"]"))
		u.states = append(u.states, nil)
		u.rets = append(u.rets, mem.Bottom)
	}
}

// memoUpTo fills the state/return memos through slot k by replaying
// published decisions (slots 1..k must be published). The memos are
// derived deterministically from decisions, so every process computes
// identical values and sharing them is safe.
func (u *core) memoUpTo(c *sim.Ctx, k int) {
	b := k
	//repro:bound n the memo basis lags the target by at most the slots published since this process last replayed: one per concurrent operation
	for u.states[b] == nil {
		b--
	}
	//repro:bound n replay covers exactly the slots between basis and target, bounded by published-but-unreplayed operations, one per process
	for i := b + 1; i <= k; i++ {
		d := c.Read(u.vals[i])
		if d == mem.Bottom {
			panic(fmt.Sprintf("universal: %s slot %d replayed before publication", u.name, i))
		}
		_, op := unpackProp(d)
		st, ret := u.apply(u.states[i-1], op)
		u.states[i], u.rets[i] = st, ret
	}
}

// findLatest walks to the newest published slot.
func (u *core) findLatest(c *sim.Ctx) int {
	j := u.last[c.ID()]
	//repro:bound n slots published past this process's last position come from concurrent deciders, at most one per process (Theorem 4's argument)
	for {
		u.ensure(j + 1)
		if c.Read(u.vals[j+1]) == mem.Bottom {
			return j
		}
		j++
	}
}

// invoke appends op to the chain (retrying lost slots) and returns its
// result. Wait-free: slot losses are bounded by the caller's same-level
// preemptions plus frozen peers (see package qlocal for the argument).
func (u *core) invoke(c *sim.Ctx, op mem.Word) mem.Word {
	if op > maxOp {
		panic(fmt.Sprintf("universal: op word %d exceeds 32 bits", op))
	}
	//repro:bound n a slot is lost only to a concurrent decider; each process defeats this operation at most once (Theorem 4)
	for {
		j := u.findLatest(c)
		d := u.slots[j+1].decide(c, packProp(c.ID(), op))
		c.Write(u.vals[j+1], d) // helper write: identical word from all writers
		u.last[c.ID()] = j + 1
		u.memoUpTo(c, j+1)
		if prop, _ := unpackProp(d); prop == c.ID() {
			return u.rets[j+1]
		}
	}
}

// peekState returns the current state by replaying decided slots.
// Post-run inspection only.
func (u *core) peekState() any {
	st := u.states[0]
	for k := 1; k < len(u.slots); k++ {
		d := u.slots[k].peek()
		if d == mem.Bottom {
			break
		}
		_, op := unpackProp(d)
		st, _ = u.apply(st, op)
	}
	return st
}

// Object is a uniprocessor universal object: any number of processes at
// any priority levels on ONE hybrid-scheduled processor, reads and
// writes only. Requires Q ≥ unicons.MinQuantum.
type Object struct{ u *core }

// New returns a uniprocessor universal object with the given initial
// state and sequential specification.
func New(name string, initial any, apply Apply) *Object {
	return &Object{u: newCore(name, initial, apply, func(i int) decider {
		return uniSlot{o: unicons.New(name + ".slot[" + strconv.Itoa(i) + "]")}
	})}
}

// Invoke applies op and returns its result.
func (o *Object) Invoke(c *sim.Ctx, op mem.Word) mem.Word { return o.u.invoke(c, op) }

// PeekState returns the current state. Post-run inspection only.
func (o *Object) PeekState() any { return o.u.peekState() }

// Ops returns the number of applied operations. Post-run inspection only.
func (o *Object) Ops() int {
	n := 0
	for k := 1; k < len(o.u.slots); k++ {
		if o.u.slots[k].peek() == mem.Bottom {
			break
		}
		n++
	}
	return n
}

// MultiObject is a multiprocessor universal object: any number of
// processes on P processors, using C-consensus objects (C = P + K) for
// each slot decision via Fig. 7. The quantum must satisfy the Table 1
// bound for the chosen (P, C).
type MultiObject struct {
	u   *core
	cfg multicons.Config
}

// NewMulti returns a multiprocessor universal object. cfg parameterizes
// the per-slot Fig. 7 instances.
func NewMulti(cfg multicons.Config, initial any, apply Apply) *MultiObject {
	m := &MultiObject{cfg: cfg}
	m.u = newCore(cfg.Name, initial, apply, func(i int) decider {
		slotCfg := cfg
		slotCfg.Name = cfg.Name + ".slot[" + strconv.Itoa(i) + "]"
		return multiSlot{
			a:       multicons.New(slotCfg),
			decided: mem.NewReg(slotCfg.Name + ".decided"),
		}
	})
	return m
}

// Invoke applies op and returns its result.
func (o *MultiObject) Invoke(c *sim.Ctx, op mem.Word) mem.Word { return o.u.invoke(c, op) }

// PeekState returns the current state. Post-run inspection only.
func (o *MultiObject) PeekState() any { return o.u.peekState() }
