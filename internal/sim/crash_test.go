package sim_test

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestCrashMidInvocationHaltsProcess crashes a process between its two
// writes: the second write must never execute, the survivor must still
// finish, and the run must end cleanly.
func TestCrashMidInvocationHaltsProcess(t *testing.T) {
	aud := sim.NewAuditor(4)
	sys := sim.New(sim.Config{
		Processors: 1, Quantum: 4,
		// Victim (ID 0) crashes after 2 global statements.
		Chooser:  sched.NewCrash(sim.FirstChooser{}, sched.CrashPoint{Proc: 0, Step: 2}),
		Observer: aud,
	})
	r1, r2 := mem.NewReg("r1"), mem.NewReg("r2")
	victim := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "victim"})
	victim.AddInvocation(func(c *sim.Ctx) {
		c.Write(r1, 1)
		c.Local(4)
		c.Write(r2, 1) // must never run
	})
	var survived bool
	survivor := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "survivor"})
	survivor.AddInvocation(func(c *sim.Ctx) {
		c.Local(2)
		survived = true
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !victim.Crashed() || victim.Live() {
		t.Fatalf("victim crashed=%v live=%v, want true/false", victim.Crashed(), victim.Live())
	}
	if survivor.Crashed() || !survived {
		t.Fatalf("survivor crashed=%v survived=%v", survivor.Crashed(), survived)
	}
	if r2.Load() != mem.Bottom {
		t.Fatalf("crashed process's post-crash write executed: r2=%d", r2.Load())
	}
	if sys.CrashedCount() != 1 {
		t.Fatalf("CrashedCount = %d, want 1", sys.CrashedCount())
	}
	if victim.Err() != nil {
		t.Fatalf("crash must not surface as a process error: %v", victim.Err())
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor: %v", err)
	}
}

// TestCrashedHighPriorityUnblocksLowPriority: a crashed mid-invocation
// high-priority process must be treated as departed (Axiom 1 claim
// lapses), so the low-priority process runs again and completes.
func TestCrashedHighPriorityUnblocksLowPriority(t *testing.T) {
	aud := sim.NewAuditor(4)
	sys := sim.New(sim.Config{
		Processors: 1, Quantum: 4,
		// hi (ID 1) crashes after 3 statements, mid-invocation.
		Chooser:  sched.NewCrash(sim.FirstChooser{}, sched.CrashPoint{Proc: 1, Step: 3}),
		Observer: aud,
		MaxSteps: 1 << 10,
	})
	var loDone bool
	lo := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "lo"})
	lo.AddInvocation(func(c *sim.Ctx) {
		c.Local(10)
		loDone = true
	})
	hi := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2, Name: "hi"})
	hi.AddInvocation(func(c *sim.Ctx) { c.Local(10) })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !hi.Crashed() {
		t.Fatal("hi did not crash")
	}
	if !loDone {
		t.Fatal("low-priority survivor blocked behind a crashed process")
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor: %v", err)
	}
}

// TestCrashedQuantumHolderFreesLevel: crashing the protected quantum
// holder must free its level without a preemption event, letting the
// same-priority peer run immediately.
func TestCrashedQuantumHolderFreesLevel(t *testing.T) {
	// Rotate forces a same-priority preemption so process 0 becomes the
	// protected holder; then the crash fires while it is protected.
	inner := sched.NewRotate()
	ch := sched.NewCrash(inner, sched.CrashPoint{Proc: 0, Step: 6})
	aud := sim.NewAuditor(4)
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: ch, Observer: aud, MaxSteps: 1 << 10})
	var done [2]bool
	for i := 0; i < 2; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				c.Local(12)
				done[i] = true
			})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done[0] || !done[1] {
		t.Fatalf("done = %v, want [false true]", done)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor: %v", err)
	}
}

// TestCrashAllProcesses: the run terminates cleanly when every process
// crashes.
func TestCrashAllProcesses(t *testing.T) {
	sys := sim.New(sim.Config{
		Processors: 1, Quantum: 4,
		Chooser: sched.NewCrash(sim.FirstChooser{},
			sched.CrashPoint{Proc: 0, Step: 1}, sched.CrashPoint{Proc: 1, Step: 1}),
	})
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(8) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sys.CrashedCount() != 2 {
		t.Fatalf("CrashedCount = %d, want 2", sys.CrashedCount())
	}
}

// TestCrashThinkingProcessNeverArrives: a process crashed while thinking
// departs silently; its remaining invocations never run.
func TestCrashThinkingProcessNeverArrives(t *testing.T) {
	aud := sim.NewAuditor(4)
	sys := sim.New(sim.Config{
		Processors: 1, Quantum: 4,
		// Victim is ID 1; crash before it ever arrives.
		Chooser:  sched.NewCrash(sim.FirstChooser{}, sched.CrashPoint{Proc: 1, Step: 0}),
		Observer: aud,
	})
	runner := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
	runner.AddInvocation(func(c *sim.Ctx) { c.Local(3) })
	victim := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
	victim.AddInvocation(func(c *sim.Ctx) { c.Local(3) })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if victim.StmtsTotal() != 0 || victim.CompletedInvocations() != 0 {
		t.Fatalf("thinking victim executed %d statements, %d invocations; want 0/0",
			victim.StmtsTotal(), victim.CompletedInvocations())
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor: %v", err)
	}
}

// TestRandomCrashBudgetRespected: the random injector crashes at most
// its budget, reproducibly per seed, and audited runs stay clean.
func TestRandomCrashBudgetRespected(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, budget := range []int{0, 1, 3} {
			ch := sched.NewRandomCrash(sched.NewUniform(seed), seed, budget, 0.05)
			aud := sim.NewAuditor(4)
			sys := sim.New(sim.Config{Processors: 2, Quantum: 4, Chooser: ch, Observer: aud, MaxSteps: 1 << 14})
			for i := 0; i < 4; i++ {
				p := sys.AddProcess(sim.ProcSpec{Processor: i % 2, Priority: 1 + i%2})
				p.AddInvocation(func(c *sim.Ctx) { c.Local(20) })
				p.AddInvocation(func(c *sim.Ctx) { c.Local(20) })
			}
			if err := sys.Run(); err != nil {
				t.Fatalf("seed=%d budget=%d: %v", seed, budget, err)
			}
			if got := sys.CrashedCount(); got > budget || got != ch.Injected {
				t.Fatalf("seed=%d budget=%d: crashed %d, injected %d", seed, budget, got, ch.Injected)
			}
			if err := aud.Err(); err != nil {
				t.Fatalf("seed=%d budget=%d: %v", seed, budget, err)
			}
		}
	}
}

// TestWorstInvStmtsIncludesUnfinished: a process aborted mid-invocation
// (step limit) reports the partial invocation through WorstInvStmts but
// not MaxInvStmts.
func TestWorstInvStmtsIncludesUnfinished(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4, MaxSteps: 10})
	p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
	p.AddInvocation(func(c *sim.Ctx) {
		for {
			c.Local(1)
		}
	})
	if err := sys.Run(); err == nil {
		t.Fatal("Run succeeded, want step-limit abort")
	}
	if p.MaxInvStmts() != 0 {
		t.Fatalf("MaxInvStmts = %d, want 0 (invocation never completed)", p.MaxInvStmts())
	}
	if p.WorstInvStmts() != 10 {
		t.Fatalf("WorstInvStmts = %d, want 10", p.WorstInvStmts())
	}
}

// Auditor negatives for crash-stop semantics: every new fail branch must
// fire on a hand-corrupted event stream.

func TestAuditorDetectsStatementAfterCrash(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	p := makeProc(t, sys, 0, 1, "p")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: p, Step: 0})
	aud.OnStatement(sim.StmtEvent{Proc: p, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedCrash, Proc: p, Step: 1})
	aud.OnStatement(sim.StmtEvent{Proc: p, Step: 2})
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "crashed process") {
		t.Fatalf("statement after crash not detected: %v", err)
	}
}

func TestAuditorDetectsArrivalAfterCrash(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	p := makeProc(t, sys, 0, 1, "p")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedCrash, Proc: p, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: p, Step: 1})
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "crashed process") {
		t.Fatalf("arrival after crash not detected: %v", err)
	}
}

func TestAuditorDetectsDoubleCrash(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	p := makeProc(t, sys, 0, 1, "p")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedCrash, Proc: p, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedCrash, Proc: p, Step: 1})
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "crashed process") {
		t.Fatalf("double crash not detected: %v", err)
	}
}

func TestAuditorDetectsPreemptionByCrashedProcess(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	a := makeProc(t, sys, 0, 1, "a")
	b := makeProc(t, sys, 0, 1, "b")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: a, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedCrash, Proc: b, Step: 1})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedPreempt, Proc: a, By: b, Step: 2})
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "crashed process") {
		t.Fatalf("preemption by crashed process not detected: %v", err)
	}
}

// TestAuditorCrashedDoesNotBlockAxiom1: after a high-priority process
// crashes mid-invocation, a low-priority statement is legal.
func TestAuditorCrashedDoesNotBlockAxiom1(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	lo := makeProc(t, sys, 0, 1, "lo")
	hi := makeProc(t, sys, 0, 2, "hi")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: hi, Step: 0})
	aud.OnStatement(sim.StmtEvent{Proc: hi, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedCrash, Proc: hi, Step: 1})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: lo, Step: 1})
	aud.OnStatement(sim.StmtEvent{Proc: lo, Step: 1})
	if err := aud.Err(); err != nil {
		t.Fatalf("crashed process still claims its priority: %v", err)
	}
}

// TestSingleStatementInvocationCompletes is a regression test for an
// accounting bug found by the multicons crash fuzz: an invocation whose
// only statement is its arrival statement (e.g. a fast path that reads a
// published decision and returns) must still be recorded as completed —
// incrementing CompletedInvocations, emitting SchedInvEnd, freeing the
// level's holder slot, and resetting the per-invocation statement count.
func TestSingleStatementInvocationCompletes(t *testing.T) {
	invEnds := 0
	obs := observerFunc2{onSched: func(ev sim.SchedEvent) {
		if ev.Kind == sim.SchedInvEnd {
			invEnds++
		}
	}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Observer: obs})
	p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
	p.AddInvocation(func(c *sim.Ctx) { c.Local(1) })
	p.AddInvocation(func(c *sim.Ctx) { c.Local(3) })
	var other bool
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			c.Local(2)
			other = true
		})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.CompletedInvocations() != 2 {
		t.Fatalf("CompletedInvocations = %d, want 2 (single-statement invocation lost)", p.CompletedInvocations())
	}
	if p.MaxInvStmts() != 3 {
		t.Fatalf("MaxInvStmts = %d, want 3 (per-invocation count leaked across invocations)", p.MaxInvStmts())
	}
	if invEnds != 3 {
		t.Fatalf("SchedInvEnd events = %d, want 3", invEnds)
	}
	if !other {
		t.Fatal("peer process blocked by a stale holder slot")
	}
}

type observerFunc2 struct {
	onSched func(sim.SchedEvent)
}

func (o observerFunc2) OnStatement(sim.StmtEvent) {}
func (o observerFunc2) OnSchedule(ev sim.SchedEvent) {
	if o.onSched != nil {
		o.onSched(ev)
	}
}
