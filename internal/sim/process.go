package sim

import (
	"fmt"
	"iter"

	"repro/internal/mem"
)

// grantKind is the kernel→process message.
type grantKind int

const (
	grantRun   grantKind = iota + 1 // execute one atomic statement
	grantAbort                      // unwind and terminate immediately
)

// yieldKind is the process→kernel message.
type yieldKind int

const (
	yieldStmt     yieldKind = iota + 1 // mid-invocation, requesting next statement
	yieldThinking                      // between invocations, awaiting arrival
	yieldDone                          // program finished (or aborted)
)

// procState is the kernel's view of a process, derived from its last
// yield.
type procState int

const (
	stateThinking procState = iota + 1 // awaiting arrival of next invocation
	stateRunnable                      // mid-invocation, ready to run
	stateDone                          // program finished
	stateCrashed                       // halted permanently by a crash-stop fault
)

// errAborted is the panic value used to unwind a process coroutine when
// the kernel aborts the run.
var errAborted = fmt.Errorf("sim: process aborted")

// Invocation is one object invocation executed by a process: the body
// runs algorithm code against shared memory via the Ctx. Every
// invocation must execute at least one atomic statement.
type Invocation func(c *Ctx)

// Process is a simulated process. Configure it before the first Run with
// AddInvocation; inspect statistics after Run.
//
// The process body runs on a runtime coroutine (iter.Pull): the kernel
// resumes it with resume, the body parks itself with park. Control
// strictly alternates — exactly one of kernel and process is running at
// any time. Run takes a pass's first yield (thinking, or done for an
// empty program) without resuming the body, so the first resume of a
// pass is the process's first grant. A parking process settles its own
// statement and makes the next scheduling decision in place, crash poll
// included, so it switches back to the kernel only when that decision
// hands the processor to another process or ends the run, or when the
// crash injector names victims (see System.settle). Data crosses a
// switch through the grant/yKind/yFp fields.
type Process struct {
	id        int
	name      string
	processor int
	pri       int
	origPri   int // priority at AddProcess, restored by System.Reset
	sys       *System
	ctx       *Ctx

	invocations []Invocation
	invPri      []int // per-invocation priority (0 = keep current)

	// Coroutine plumbing. next resumes the body until its park; stop
	// tears it down (its parked yield returns false). yield is the park
	// side, captured once when the coroutine starts.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	started  bool
	stopping bool

	// The kernel↔process mailbox: grant is written by the kernel before
	// resuming; yKind/yFp are written by the body before parking.
	grant grantKind
	yKind yieldKind
	yFp   mem.Footprint

	// Kernel-side scheduling state. granted marks a statement begun by
	// System.begin and not yet finished; arrived marks it an arrival.
	// fresh marks a process not resumed since Run took its first yield of
	// the pass: its coroutine still sits unstarted or at its top-of-loop
	// park, where Reset expects it, so aborting or crashing it needs no
	// unwinding.
	state       procState
	granted     bool
	arrived     bool
	fresh       bool
	protected   bool // mid-quantum guarantee after a same-priority preemption
	sinceResume int  // own statements since last same-priority preemption
	preemptions int  // same-priority preemptions suffered

	// pending is the footprint of the process's next statement, known
	// once it has yielded mid-invocation (pendingKnown). A thinking
	// process's first statement is unknown until granted.
	pending      mem.Footprint
	pendingKnown bool

	// obsHash accumulates a stable hash of everything the process has
	// observed from shared memory (op kind, object, value returned or
	// written, one term per statement). Together with the per-process
	// statement counters it stands in for the process's opaque local
	// state in System.Fingerprint: a deterministic invocation body's
	// future behavior is a function of what it has read so far. It stays
	// zero on a system whose owner declined the upkeep (SkipFingerprint).
	obsHash uint64

	// fpCache/fpDirty memoize this process's XOR contribution to
	// System.Fingerprint; every kernel-side mutation marks the process
	// dirty and Fingerprint recomputes only dirty contributions.
	fpCache uint64
	fpDirty bool

	// Statistics.
	invIndex     int
	stmtsThisInv int64
	stmtsTotal   int64
	maxInvStmts  int64
	// invStmtsLog records the own-statement count of every completed
	// invocation, in order — the raw samples behind the empirical
	// progress-bound measurement mode (check.Options.Measure). Truncated
	// in place by reset, so pooled replays append into retained capacity.
	invStmtsLog []int64

	// The statement most recently executed: written field by field by
	// the Ctx accessor that ran it (executed), read by the kernel's
	// bookkeeping when the process next parks (finish), which assembles
	// a StmtEvent from them only for an Observer.
	lastOp  Op
	lastObj string
	lastVal uint64
	lastFp  mem.Footprint

	aborted bool
	crashed bool
	err     error
}

// ID returns the process's index in System.Processes order.
func (p *Process) ID() int { return p.id }

// Name returns the process's diagnostic name.
func (p *Process) Name() string { return p.name }

// Processor returns the index of the processor the process runs on.
func (p *Process) Processor() int { return p.processor }

// Priority returns the process's priority (1..V, V highest).
func (p *Process) Priority() int { return p.pri }

// AddInvocation appends an object invocation to the process's program.
func (p *Process) AddInvocation(inv Invocation) *Process {
	if p.sys.sealed {
		panic("sim: AddInvocation after Run")
	}
	p.invocations = append(p.invocations, inv)
	p.invPri = append(p.invPri, 0)
	return p
}

// AddInvocationPri appends an invocation to run at the given priority,
// supporting the paper's §5 dynamic-priority systems: a process's
// priority may change between invocations but never during one. The
// priority takes effect when the previous invocation completes.
func (p *Process) AddInvocationPri(pri int, inv Invocation) *Process {
	if p.sys.sealed {
		panic("sim: AddInvocationPri after Run")
	}
	if pri < 1 {
		panic(fmt.Sprintf("sim: priority must be >= 1, got %d", pri))
	}
	p.invocations = append(p.invocations, inv)
	p.invPri = append(p.invPri, pri)
	return p
}

// StmtsTotal returns the total statements the process executed.
func (p *Process) StmtsTotal() int64 { return p.stmtsTotal }

// MaxInvStmts returns the maximum statements executed in any single
// completed invocation — the process's worst-case wait-free step bound
// in this run.
func (p *Process) MaxInvStmts() int64 { return p.maxInvStmts }

// WorstInvStmts returns the maximum statements the process executed
// within any single invocation, including an invocation still in
// progress when the run ended (crash, abort, or step limit). This is
// the quantity a wait-freedom bound constrains: a process spinning
// forever never completes its invocation, so MaxInvStmts alone would
// miss it.
func (p *Process) WorstInvStmts() int64 {
	if p.stmtsThisInv > p.maxInvStmts {
		return p.stmtsThisInv
	}
	return p.maxInvStmts
}

// InvStmts returns the own-statement count of every invocation the
// process completed, in program order. The returned slice is the
// process's internal log: read-only, valid until the next Reset. These
// are the per-invocation samples the measurement mode
// (check.Options.Measure) aggregates into empirical progress bounds.
func (p *Process) InvStmts() []int64 { return p.invStmtsLog }

// InflightStmts returns the own-statement count of the invocation in
// progress when the run ended (0 if the process was between
// invocations). A nonzero value on a live process at run end is a
// right-censored progress sample: the invocation had consumed at least
// this many statements without completing — the signature of
// starvation when it dwarfs the completed-invocation distribution.
func (p *Process) InflightStmts() int64 { return p.stmtsThisInv }

// Crashed reports whether the process was halted by a crash-stop fault.
func (p *Process) Crashed() bool { return p.crashed }

// Live reports whether the process has neither finished its program nor
// crashed. Kernel-side state: safe to read from a Chooser or after Run,
// not from algorithm code.
func (p *Process) Live() bool {
	return p.state != stateDone && p.state != stateCrashed
}

// Preemptions returns how many same-priority preemptions the process
// suffered.
func (p *Process) Preemptions() int { return p.preemptions }

// NextFootprint returns the canonical footprint of the statement the
// process will execute when next granted, and whether it is known. It
// is known exactly when the process is parked mid-invocation (state
// runnable, having yielded after a previous statement); a thinking
// process's first statement is unknown until its arrival is granted.
// Kernel-side state: safe to read from a Chooser, not from algorithm
// code.
func (p *Process) NextFootprint() (mem.Footprint, bool) {
	return p.pending, p.pendingKnown && p.state == stateRunnable
}

// CompletedInvocations returns how many invocations the process finished.
func (p *Process) CompletedInvocations() int { return p.invIndex }

// Err returns the panic value, if any, with which the process's program
// failed (nil for clean completion or kernel-initiated abort).
func (p *Process) Err() error { return p.err }

// startCoro launches the process body on a runtime coroutine at the
// process's first grant. The body loops so a pooled System can rerun
// the program after Reset: each pass runs the full program, parks with
// yieldDone, and waits at that top-of-loop park until the first grant
// of a later pass resumes it. A torn-down coroutine (yield returned
// false) returns instead of parking again — iter.Pull forbids yielding
// after stop.
func (p *Process) startCoro() {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for {
			p.runProgram()
			if p.stopping {
				return
			}
			if p.granted {
				p.sys.settle(p, yieldDone, mem.Footprint{})
			}
			p.yKind = yieldDone
			if !yield(struct{}{}) {
				return
			}
		}
	})
	p.started = true
}

// resume switches control to the process coroutine with the given grant
// and returns the yield it parks with. The first resume of a pass is
// always the process's first grant (Run took the thinking yield before
// it), which starts the coroutine or resumes it from its top-of-loop
// park; crash and abortAll never resume a fresh process.
func (p *Process) resume(g grantKind) yieldKind {
	p.grant = g
	p.fresh = false
	p.sys.resumes++
	if !p.started {
		p.startCoro()
	}
	if _, ok := p.next(); !ok {
		// The coroutine was torn down (Close); report done so kernel
		// bookkeeping stays consistent.
		return yieldDone
	}
	return p.yKind
}

// park ends the process's turn with the given message and returns its
// next grant. After a granted statement the process first settles it in
// place, and if the resulting decision grants it again, park returns
// without a coroutine switch. Otherwise it yields control back to the
// kernel; a false yield means the coroutine is being torn down: unwind
// without parking again.
func (p *Process) park(kind yieldKind, fp mem.Footprint) grantKind {
	if p.granted && p.sys.settle(p, kind, fp) {
		return grantRun
	}
	p.yKind = kind
	p.yFp = fp
	if !p.yield(struct{}{}) {
		p.stopping = true
		panic(errAborted)
	}
	return p.grant
}

// runProgram executes one full pass of the process's program, converting
// panics into p.err exactly as the goroutine shell did. Kernel-initiated
// aborts (errAborted) unwind silently, and a chooser, crash injector or
// observer panic raised while the process settled a statement
// (System.onCoro) is re-raised: it leaves the coroutine and escapes Run
// with its value.
func (p *Process) runProgram() {
	defer func() {
		if r := recover(); r != nil && r != errAborted { //nolint:errorlint // sentinel identity
			if p.sys.onCoro {
				panic(r)
			}
			p.err = fmt.Errorf("sim: process %s panicked: %v", p.name, r)
		}
	}()
	c := p.ctx
	for i := range p.invocations {
		// The first arrival of a pass is the grant that resumed the
		// coroutine: Run took the thinking yield before it.
		if i > 0 {
			p.await()
		}
		c.hasGrant = true
		p.invocations[i](c)
		if c.hasGrant {
			panic(fmt.Sprintf("sim: invocation %d of %s executed no statements", i, p.name))
		}
	}
}

// await parks the process as thinking until the kernel grants arrival.
// The grant doubles as permission to execute the first statement of the
// next invocation. A pass's first invocation does not await: Run took
// that thinking yield without resuming the process, and the grant that
// resumed it is the arrival.
func (p *Process) await() {
	if p.park(yieldThinking, mem.Footprint{}) == grantAbort {
		p.aborted = true
		panic(errAborted)
	}
}

// reset restores the process to its pre-run state for a pooled rerun.
// The coroutine itself needs no work: after any completed Run (normal,
// aborted, or crashed) every started coroutine is parked at its
// top-of-loop yield, ready to run the program again.
func (p *Process) reset() {
	p.state = 0
	p.protected = false
	p.sinceResume = 0
	p.preemptions = 0
	p.pending = mem.Footprint{}
	p.pendingKnown = false
	p.obsHash = 0
	p.fpCache = 0
	p.fpDirty = true
	p.invIndex = 0
	p.stmtsThisInv = 0
	p.stmtsTotal = 0
	p.maxInvStmts = 0
	p.invStmtsLog = p.invStmtsLog[:0]
	p.executed(0, "", 0, mem.Footprint{})
	p.aborted = false
	p.crashed = false
	p.err = nil
	p.pri = p.origPri
}

// Ctx is a process's handle to shared memory. Each method executes
// exactly the number of atomic statements its paper counterpart does.
// A Ctx is only valid inside the invocation it was passed to.
type Ctx struct {
	p        *Process
	hasGrant bool
}

// ID returns the process identifier (0-based).
func (c *Ctx) ID() int { return c.p.id }

// Now returns the global statement count — a logical timestamp usable
// for history recording (e.g. linearizability checking). It executes no
// statement.
func (c *Ctx) Now() int64 { return c.p.sys.steps }

// Pri returns the process priority (1..V, V highest).
func (c *Ctx) Pri() int { return c.p.pri }

// Processor returns the index of the processor the process runs on.
func (c *Ctx) Processor() int { return c.p.processor }

// stmt parks until the kernel grants one atomic statement. fp is the
// footprint of the access the statement will perform; it travels with
// the yield so the kernel knows every parked process's next access
// before deciding who runs.
func (c *Ctx) stmt(fp mem.Footprint) {
	if c.p.aborted {
		panic(errAborted)
	}
	if c.hasGrant {
		// First statement of the invocation: the arrival grant already
		// covers it, so the footprint was unknown to the kernel when it
		// decided (the executed footprint still reaches the access log
		// via the statement event).
		c.hasGrant = false
		return
	}
	if c.p.park(yieldStmt, fp) == grantAbort {
		c.p.aborted = true
		panic(errAborted)
	}
}

// executed notes the statement the process just executed for finish,
// field by field: a StmtEvent literal would be built on the stack and
// copied in whole at every statement.
func (p *Process) executed(op Op, obj string, v uint64, fp mem.Footprint) {
	p.lastOp, p.lastObj, p.lastVal, p.lastFp = op, obj, v, fp
}

// memDelta folds an object's state-hash change into the system's
// incremental memory fingerprint (call with the hash before and after
// the mutation).
func (c *Ctx) memDelta(before, after uint64) {
	c.p.sys.memFP ^= before ^ after
}

// Read atomically reads register r (one statement).
func (c *Ctx) Read(r *mem.Reg) mem.Word {
	fp := r.Footprint(mem.AccessRead)
	c.stmt(fp)
	v := r.Load()
	c.p.executed(OpRead, r.Name(), v, fp)
	return v
}

// Write atomically writes v to register r (one statement).
func (c *Ctx) Write(r *mem.Reg, v mem.Word) {
	fp := r.Footprint(mem.AccessWrite)
	c.stmt(fp)
	if c.p.sys.noFingerprint {
		r.Store(v)
	} else {
		before := r.StateHash()
		r.Store(v)
		c.memDelta(before, r.StateHash())
	}
	c.p.executed(OpWrite, r.Name(), v, fp)
}

// CCons invokes C-consensus object o with proposal v (one statement) and
// returns the object's response (the decided value, or ⊥ after the C-th
// invocation).
func (c *Ctx) CCons(o *mem.ConsObject, v mem.Word) mem.Word {
	fp := o.Footprint()
	c.stmt(fp)
	var out mem.Word
	if c.p.sys.noFingerprint {
		out = o.Invoke(v)
	} else {
		before := o.StateHash()
		out = o.Invoke(v)
		c.memDelta(before, o.StateHash())
	}
	c.p.executed(OpCons, o.Name(), out, fp)
	return out
}

// CASPrim performs a hardware compare-and-swap on primitive object o
// (one statement). Baseline comparators only; the paper's algorithms use
// nothing stronger than registers and C-consensus objects.
func (c *Ctx) CASPrim(o *mem.CASObject, old, new mem.Word) bool {
	fp := o.Footprint(mem.AccessCons)
	c.stmt(fp)
	var ok bool
	if c.p.sys.noFingerprint {
		ok = o.CompareAndSwap(old, new)
	} else {
		before := o.StateHash()
		ok = o.CompareAndSwap(old, new)
		c.memDelta(before, o.StateHash())
	}
	v := mem.Word(0)
	if ok {
		v = 1
	}
	c.p.executed(OpCons, o.Name(), v, fp)
	return ok
}

// LoadPrim reads primitive CAS object o (one statement).
func (c *Ctx) LoadPrim(o *mem.CASObject) mem.Word {
	fp := o.Footprint(mem.AccessRead)
	c.stmt(fp)
	v := o.Load()
	c.p.executed(OpRead, o.Name(), v, fp)
	return v
}

// Local executes n counted local statements (no shared access). Use it
// to honor the paper's numbered-statement quantum accounting (e.g. the
// "v := val" in Fig. 3).
func (c *Ctx) Local(n int) {
	fp := mem.Footprint{Cell: -1, Kind: mem.AccessLocal}
	for i := 0; i < n; i++ {
		c.stmt(fp)
		c.p.executed(OpLocal, "", 0, fp)
	}
}
