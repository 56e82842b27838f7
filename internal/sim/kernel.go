package sim

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Run executes the system to completion: it repeatedly grants one atomic
// statement to a legally schedulable process until all programs finish.
// The schedule honors Axiom 1 (priority) and Axiom 2 (quantum) exactly;
// remaining freedom goes to the configured Chooser.
//
// Run returns ErrStepLimit if Config.MaxSteps is exceeded, or an error
// if any process program panicked. It may be called again only after
// Reset.
func (s *System) Run() error {
	if s.ran {
		return ErrRunTwice
	}
	s.ran = true
	s.sealed = true
	s.logSince = ReadsSince(s.cfg.Chooser)

	// Take each process's first yield of the pass without resuming it:
	// thinking if it has invocations, done if it has none, or if Close
	// tore its coroutine down. After this point the invariant holds:
	// every non-done process is fresh (its coroutine unstarted or at its
	// top-of-loop park, entered by its first grant) or parked awaiting a
	// grant.
	for _, p := range s.procs {
		kind := yieldDone
		if len(p.invocations) > 0 && !s.closed {
			kind = yieldThinking
		}
		p.fresh = true
		s.consume(p, kind, mem.Footprint{})
	}

	s.crasher, _ = s.cfg.Chooser.(Crasher)
	if armed, ok := s.cfg.Chooser.(crashArmed); ok && !armed.CrashesArmed() {
		s.crasher = nil
	}
	next, err := s.decide()
	for next != nil {
		s.begin(next)
		next.resume(grantRun)
		// The process runs granted statements until a decision it makes
		// itself (settle) hands the processor on or ends the run, until
		// the crash injector names victims at a step it decides, or until
		// it parks undecided at program end.
		switch {
		case s.decided:
			next, err = s.next, s.nextErr
			s.next, s.decided = nil, false
		case s.victims != nil:
			for _, v := range s.victims {
				s.crash(v)
			}
			s.victims = nil
			next, err = s.choose()
		default:
			next, err = s.decide()
		}
	}
	if err != nil {
		s.abortAll()
		return err
	}

	var errs []error
	for _, p := range s.procs {
		if p.err != nil {
			errs = append(errs, p.err)
		}
	}
	return errors.Join(errs...)
}

// decide makes one scheduling decision in Run: it crashes the victims
// the crash injector names for this step, then chooses among the
// survivors.
func (s *System) decide() (*Process, error) {
	for _, v := range s.pollCrashes() {
		s.crash(v)
	}
	return s.choose()
}

// pollCrashes asks the armed crash injector, if any, for the victims of
// this step, given its pre-crash candidates. It runs in Run or, via
// settle, on the coroutine of the process that just parked; either way
// only Run crashes the victims, since crashing a victim unwinds its
// coroutine.
func (s *System) pollCrashes() []*Process {
	if s.crasher == nil || s.allDone() {
		return nil
	}
	return s.crasher.Crashes(Decision{Candidates: s.candidates(), Procs: s.procs, Step: s.steps, Sys: s, Since: s.since})
}

// choose finishes a scheduling decision after its crash poll: it
// collects the legal candidates, enforces the step limit and lets the
// chooser pick among several candidates. It returns the process to
// grant next, or nil once every program has finished; a non-nil error
// ends the run.
func (s *System) choose() (*Process, error) {
	cands := s.candidates()
	if len(cands) == 0 {
		if s.allDone() {
			return nil, nil
		}
		return nil, errors.New("sim: no schedulable process (internal invariant violated)")
	}
	if s.steps >= s.cfg.MaxSteps {
		return nil, fmt.Errorf("%w (limit %d)", ErrStepLimit, s.cfg.MaxSteps)
	}
	if len(cands) == 1 {
		return cands[0], nil
	}
	idx := s.cfg.Chooser.Pick(Decision{Candidates: cands, Procs: s.procs, Step: s.steps, Sys: s, Since: s.since})
	s.since = s.since[:0]
	if idx == PickAbort {
		return nil, ErrPickAbort
	}
	if idx < 0 || idx >= len(cands) {
		return nil, fmt.Errorf("sim: chooser picked %d of %d candidates", idx, len(cands))
	}
	return cands[idx], nil
}

func (s *System) allDone() bool {
	for _, p := range s.procs {
		if p.state != stateDone && p.state != stateCrashed {
			return false
		}
	}
	return true
}

// crash halts process p permanently (a crash-stop fault). The victim's
// coroutine is unwound, its quantum protection lapses, and its priority
// level's holder slot frees — it departs, it is not preempted, so no
// SchedPreempt is emitted and no survivor gains quantum protection from
// the crash. Done or already-crashed victims are ignored.
func (s *System) crash(p *Process) {
	if p.sys != s {
		panic(fmt.Sprintf("sim: crash of foreign process %s", p.name))
	}
	if p.state == stateDone || p.state == stateCrashed {
		return
	}
	s.clearHolder(p)
	p.protected = false
	s.candDirty = true
	// A crash is dependent with everything: record it in the access log
	// so footprint-aware choosers never commute statements across it.
	if s.logSince {
		s.since = append(s.since, Access{Proc: p.id, Processor: p.processor, Global: true})
	}
	s.observeSched(SchedEvent{Kind: SchedCrash, Proc: p, Step: s.steps})
	// Unwind the coroutine: a non-done process is fresh, and needs no
	// unwinding, or parked awaiting a grant, and an aborted pass parks
	// exactly once more with yieldDone.
	if !p.fresh {
		p.resume(grantAbort)
	}
	p.state = stateCrashed
	p.crashed = true
	p.fpDirty = true
}

// candidates returns, in deterministic (process ID) order, every process
// that may legally execute the next atomic statement under Axioms 1–2.
// The returned slice is the system's reusable candidate buffer, never
// modified or retained by choosers. It is rebuilt only after a change to
// scheduling state marked it dirty (candDirty), and otherwise returned
// as the previous decision left it.
func (s *System) candidates() []*Process {
	if s.candDirty {
		s.candDirty = false
		s.candBuf = s.candBuf[:0]
		for i := range s.byProc {
			s.candBuf = s.processorCandidates(s.candBuf, i)
		}
	}
	return s.candBuf
}

// processorCandidates appends the schedulable set on processor i to
// buf and returns the extended slice:
//
//   - Axiom 1: only processes at the maximal ready priority may run;
//     thinking processes of strictly higher priority may arrive (and
//     thereby preempt) at any moment.
//   - Axiom 2: if the current quantum holder at the maximal ready level
//     is protected (mid-guaranteed-quantum), it is the only runnable
//     candidate at that level.
//   - Thinking processes at the maximal ready level may arrive and run
//     only if no protected holder blocks the level; arrivals at lower
//     priorities are unobservable until they could run, so they are not
//     candidates.
func (s *System) processorCandidates(buf []*Process, i int) []*Process {
	maxReady := 0
	for _, p := range s.byProc[i] {
		if p.state == stateRunnable && p.pri > maxReady {
			maxReady = p.pri
		}
	}
	if maxReady == 0 {
		for _, p := range s.byProc[i] {
			if p.state == stateThinking {
				buf = append(buf, p)
			}
		}
		return buf
	}
	holder := s.holder(i, maxReady)
	blocked := holder != nil && holder.state == stateRunnable && holder.protected
	for _, p := range s.byProc[i] {
		switch {
		case p.state == stateRunnable && p.pri == maxReady:
			if !blocked || p == holder {
				buf = append(buf, p)
			}
		case p.state == stateThinking && p.pri > maxReady:
			buf = append(buf, p)
		case p.state == stateThinking && p.pri == maxReady && !blocked:
			buf = append(buf, p)
		}
	}
	return buf
}

// holder returns the quantum-slot holder at (processor, priority), or
// nil. Holder slots live in a flat per-processor slice indexed by
// priority, grown on demand (dynamic priorities may exceed the levels
// present at AddProcess).
func (s *System) holder(proc, lvl int) *Process {
	hs := s.holders[proc]
	if lvl >= len(hs) {
		return nil
	}
	return hs[lvl]
}

func (s *System) setHolder(proc, lvl int, p *Process) {
	hs := s.holders[proc]
	for lvl >= len(hs) {
		hs = append(hs, nil)
	}
	hs[lvl] = p
	s.holders[proc] = hs
}

// clearHolder frees p's priority level's holder slot if p holds it.
func (s *System) clearHolder(p *Process) {
	hs := s.holders[p.processor]
	if p.pri < len(hs) && hs[p.pri] == p {
		hs[p.pri] = nil
	}
}

// begin does the scheduling bookkeeping that precedes p's granted
// statement: its arrival if it was thinking, the same-priority
// preemption of its level's quantum holder, and the holder slot. The
// slot changes hands at every arrival (the end of p's previous
// invocation freed p's slot), at every preemption, and when p takes
// over a slot freed by its holder's invocation end. Each of these may
// change the candidates, so each marks the list dirty; a grant to the
// level's holder changes no scheduling state.
func (s *System) begin(p *Process) {
	i, lvl := p.processor, p.pri
	p.arrived = p.state == stateThinking
	if p.arrived {
		s.observeSched(SchedEvent{Kind: SchedArrive, Proc: p, Step: s.steps})
		// The arrival statement starts the invocation: mark the process
		// runnable now so a single-statement invocation (whose next yield
		// is already thinking/done) still completes in consume.
		p.state = stateRunnable
	}
	if h := s.holder(i, lvl); h != p {
		if h != nil && h.state == stateRunnable {
			// Same-priority preemption of the current quantum holder. Per
			// Axiom 2 the victim is guaranteed Q of its own statements
			// once it resumes (unless its invocation ends first).
			h.protected = s.cfg.Quantum > 0
			h.sinceResume = 0
			h.preemptions++
			h.fpDirty = true
			s.observeSched(SchedEvent{Kind: SchedPreempt, Proc: h, By: p, Step: s.steps})
		}
		s.setHolder(i, lvl, p)
		s.candDirty = true
	}
	p.granted = true
}

// finish does the bookkeeping that follows p's granted statement, given
// the yield p parked with after it: statement counters, quantum
// protection, the observation hash (kept unless the owner declined the
// fingerprint upkeep), the access log (kept only for a chooser that
// reads it), the statement event (assembled only for an Observer) and
// the yield itself.
func (s *System) finish(p *Process, kind yieldKind, fp mem.Footprint) {
	p.granted = false
	p.stmtsTotal++
	p.stmtsThisInv++
	p.sinceResume++
	if p.protected && p.sinceResume >= s.cfg.Quantum {
		p.protected = false
		s.candDirty = true
	}
	step := s.steps
	s.steps++
	// Fold the executed statement into the process's observation hash
	// (its stand-in for opaque local state in System.Fingerprint) and
	// into the inter-decision access log. Arrivals and invocation
	// completions additionally change scheduler state, so they are
	// flagged dependent-with-everything.
	if !s.noFingerprint {
		p.obsHash = mem.Mix(mem.Mix(mem.Mix(p.obsHash, uint64(p.lastOp)), p.lastFp.Obj), p.lastVal)
	}
	if s.logSince {
		s.since = append(s.since, Access{
			Proc:      p.id,
			Processor: p.processor,
			Fp:        p.lastFp,
			Global:    p.arrived || kind != yieldStmt,
		})
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnStatement(StmtEvent{Proc: p, Op: p.lastOp, Object: p.lastObj, Value: p.lastVal, Step: step, Fp: p.lastFp})
	}
	s.consume(p, kind, fp)
}

// settle runs on p's coroutine when p parks after a granted statement:
// p finishes its own statement and, unless its program ended, makes
// the next decision in place. It polls the crash injector first. If the
// injector names victims, s.victims carries them to Run, which alone
// unwinds coroutines (a victim may be p itself) and finishes the
// decision. Otherwise settle chooses, and reports whether the choice
// granted p again, in which case p continues without a coroutine
// switch; any other choice is left in s.next/s.nextErr for Run. onCoro
// marks the span in which a chooser, crash injector or observer panic
// must escape Run rather than become p's error.
func (s *System) settle(p *Process, kind yieldKind, fp mem.Footprint) bool {
	s.onCoro = true
	s.finish(p, kind, fp)
	again := false
	if kind != yieldDone {
		if victims := s.pollCrashes(); len(victims) > 0 {
			s.victims = victims
		} else {
			next, err := s.choose()
			if again = next == p; again {
				s.begin(p)
			} else {
				s.next, s.nextErr, s.decided = next, err, true
			}
		}
	}
	s.onCoro = false
	return again
}

// consume updates kernel-side state from a process's yield. A yield
// between invocations or at program end changes scheduling state (the
// process's state, and possibly its holder slot, protection and
// priority), so it marks the candidate list dirty. A mid-invocation
// yield follows a granted statement, whose begin already made the
// process runnable, so it changes only the pending footprint.
func (s *System) consume(p *Process, kind yieldKind, fp mem.Footprint) {
	p.fpDirty = true
	switch kind {
	case yieldStmt:
		p.pending = fp
		p.pendingKnown = true
	case yieldThinking, yieldDone:
		s.candDirty = true
		wasRunning := p.state == stateRunnable
		p.pendingKnown = false
		if kind == yieldThinking {
			p.state = stateThinking
		} else {
			p.state = stateDone
		}
		if wasRunning {
			// Invocation completed: the quantum guarantee lapses and the
			// level's holder slot frees.
			p.protected = false
			p.sinceResume = 0
			s.clearHolder(p)
			if p.stmtsThisInv > p.maxInvStmts {
				p.maxInvStmts = p.stmtsThisInv
			}
			p.invStmtsLog = append(p.invStmtsLog, p.stmtsThisInv)
			p.stmtsThisInv = 0
			p.invIndex++
			s.observeSched(SchedEvent{Kind: SchedInvEnd, Proc: p, Step: s.steps})
		}
		if kind == yieldDone {
			s.observeSched(SchedEvent{Kind: SchedProcDone, Proc: p, Step: s.steps})
		}
		// Dynamic priorities (§5): a pending priority change takes
		// effect between invocations, never during one.
		if p.state == stateThinking && p.invIndex < len(p.invPri) && p.invPri[p.invIndex] > 0 {
			p.pri = p.invPri[p.invIndex]
		}
	}
}

func (s *System) observeSched(ev SchedEvent) {
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnSchedule(ev)
	}
}

// abortAll unwinds every live process coroutine. It relies on the kernel
// invariant that every non-done process is fresh, and so needs no
// unwinding, or parked awaiting a grant. Crashed processes were already
// unwound by crash.
func (s *System) abortAll() {
	for _, p := range s.procs {
		for p.state != stateDone && p.state != stateCrashed {
			if p.fresh || p.resume(grantAbort) == yieldDone {
				p.state = stateDone
				p.fpDirty = true
			}
		}
	}
}
