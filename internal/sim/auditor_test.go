package sim_test

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// TestAuditorCleanOnKernelSchedules wires the independent axiom auditor
// into heavily adversarial runs of a real algorithm: the kernel must
// never produce an event stream violating Axioms 1-2.
func TestAuditorCleanOnKernelSchedules(t *testing.T) {
	for _, quantum := range []int{0, 1, 4, 8, 32} {
		for seed := int64(0); seed < 40; seed++ {
			aud := sim.NewAuditor(quantum)
			sys := sim.New(sim.Config{
				Processors: 2, Quantum: quantum,
				Chooser: sched.NewUniform(seed), Observer: aud, MaxSteps: 1 << 18,
			})
			obj := unicons.New("cons")
			for i := 0; i < 6; i++ {
				p := sys.AddProcess(sim.ProcSpec{Processor: i % 2, Priority: 1 + i%3})
				for k := 0; k < 2; k++ {
					p.AddInvocation(func(c *sim.Ctx) { obj.Decide(c, 1) })
				}
			}
			if err := sys.Run(); err != nil {
				t.Fatalf("Q=%d seed=%d: %v", quantum, seed, err)
			}
			if err := aud.Err(); err != nil {
				t.Fatalf("Q=%d seed=%d: %v", quantum, seed, err)
			}
		}
	}
}

func TestAuditorCleanUnderStaggerAndRotate(t *testing.T) {
	for _, ch := range []sim.Chooser{sched.NewRotate(), sched.NewStagger(5, 1), sched.NewStagger(5, 3)} {
		aud := sim.NewAuditor(5)
		sys := sim.New(sim.Config{Processors: 1, Quantum: 5, Chooser: ch, Observer: aud})
		for i := 0; i < 4; i++ {
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%2})
			p.AddInvocation(func(c *sim.Ctx) { c.Local(12) })
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("%T: %v", ch, err)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("%T: %v", ch, err)
		}
	}
}

// makeProc builds a throwaway Process carrying identity for synthetic
// event streams.
func makeProc(t *testing.T, sys *sim.System, processor, pri int, name string) *sim.Process {
	t.Helper()
	return sys.AddProcess(sim.ProcSpec{Processor: processor, Priority: pri, Name: name})
}

// TestAuditorDetectsAxiom1Violation feeds a synthetic event stream in
// which a low-priority process runs while a higher one is mid-invocation.
func TestAuditorDetectsAxiom1Violation(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	lo := makeProc(t, sys, 0, 1, "lo")
	hi := makeProc(t, sys, 0, 2, "hi")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: hi, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: lo, Step: 1})
	aud.OnStatement(sim.StmtEvent{Proc: lo, Op: sim.OpLocal, Step: 1})
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "ready") {
		t.Fatalf("Axiom 1 violation not detected: %v", err)
	}
}

// TestAuditorDetectsAxiom1ViolationHighFirst is the opposite order: the
// higher-priority processes are added first, so they hold the lower
// IDs. With two of them ready, the diagnostic names the lowest-ID one.
func TestAuditorDetectsAxiom1ViolationHighFirst(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	hi := makeProc(t, sys, 0, 2, "hi")
	top := makeProc(t, sys, 0, 3, "top")
	lo := makeProc(t, sys, 0, 1, "lo")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: lo, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: top, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: hi, Step: 0})
	aud.OnStatement(sim.StmtEvent{Proc: lo, Op: sim.OpLocal, Step: 0})
	err := aud.Err()
	if err == nil || !strings.Contains(err.Error(), "ready") {
		t.Fatalf("Axiom 1 violation not detected: %v", err)
	}
	if !strings.Contains(err.Error(), "while hi (pri 2)") {
		t.Fatalf("diagnostic does not name the lowest-ID witness hi: %v", err)
	}
}

// TestAuditorResetAcrossCrash reuses an audited pooled system: the
// first run crashes the high-priority process mid-invocation, the
// second runs it to completion. Reset must leave no crash or
// mid-invocation state behind, so the second run audits clean.
func TestAuditorResetAcrossCrash(t *testing.T) {
	aud := sim.NewAuditor(4)
	crash := sched.NewCrash(sim.FirstChooser{}, sched.CrashPoint{Proc: 0, Step: 1})
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: crash, Observer: aud})
	defer sys.Close()
	r := mem.NewReg("r")
	var hiStmts, loDone int
	hi := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2, Name: "hi"})
	hi.AddInvocation(func(c *sim.Ctx) {
		for k := 0; k < 3; k++ {
			c.Write(r, mem.Word(k))
			hiStmts++
		}
	})
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "lo"}).
		AddInvocation(func(c *sim.Ctx) {
			c.Read(r)
			loDone++
		})
	sys.OnReset(func() {
		aud.Reset()
		crash.Reset()
		hiStmts, loDone = 0, 0
	})

	if err := sys.Run(); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if !hi.Crashed() || hiStmts == 3 || loDone != 1 {
		t.Fatalf("run 1: hi crashed=%v after %d statements, lo done %d; want a mid-invocation crash and lo done",
			hi.Crashed(), hiStmts, loDone)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("run 1 audit: %v", err)
	}

	crash.Plan = nil
	sys.Reset()
	if err := sys.Run(); err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if hi.Crashed() || hiStmts != 3 || loDone != 1 {
		t.Fatalf("run 2: hi crashed=%v after %d statements, lo done %d; want both complete", hi.Crashed(), hiStmts, loDone)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("run 2 audit reports state left from run 1: %v", err)
	}
}

// TestAuditorRejectsSecondSystem: an auditor keys its state by process
// ID, so events from another system's process under an ID it has
// already seen are reported instead of merged into the first's state.
func TestAuditorRejectsSecondSystem(t *testing.T) {
	a := makeProc(t, sim.New(sim.Config{Processors: 1, Quantum: 4}), 0, 1, "a")
	b := makeProc(t, sim.New(sim.Config{Processors: 1, Quantum: 4}), 0, 1, "b")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: a, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: b, Step: 0})
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "share process ID 0") {
		t.Fatalf("second system's process not reported: %v", err)
	}
}

// TestAuditorDetectsAxiom2Violation feeds a stream with a second
// same-priority preemption after too few statements.
func TestAuditorDetectsAxiom2Violation(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	a := makeProc(t, sys, 0, 1, "a")
	b := makeProc(t, sys, 0, 1, "b")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: a, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: b, Step: 1})
	aud.OnStatement(sim.StmtEvent{Proc: a, Step: 1})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedPreempt, Proc: a, By: b, Step: 2}) // first: legal
	aud.OnStatement(sim.StmtEvent{Proc: b, Step: 2})
	aud.OnStatement(sim.StmtEvent{Proc: a, Step: 3})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedPreempt, Proc: a, By: b, Step: 4}) // after 1 < Q=4
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "re-preempted") {
		t.Fatalf("Axiom 2 violation not detected: %v", err)
	}
}

// TestAuditorDetectsCrossPriorityPreemptEvent rejects a preemption event
// crossing priorities.
func TestAuditorDetectsCrossPriorityPreemptEvent(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	lo := makeProc(t, sys, 0, 1, "lo")
	hi := makeProc(t, sys, 0, 2, "hi")
	aud := sim.NewAuditor(4)
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedArrive, Proc: lo, Step: 0})
	aud.OnSchedule(sim.SchedEvent{Kind: sim.SchedPreempt, Proc: lo, By: hi, Step: 1})
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "crosses") {
		t.Fatalf("cross-priority preempt event not detected: %v", err)
	}
}

// TestAuditorDetectsStatementWithoutArrival rejects statements from
// processes that never arrived.
func TestAuditorDetectsStatementWithoutArrival(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	p := makeProc(t, sys, 0, 1, "p")
	aud := sim.NewAuditor(4)
	aud.OnStatement(sim.StmtEvent{Proc: p, Step: 0})
	if err := aud.Err(); err == nil {
		t.Fatal("statement without arrival not detected")
	}
}

// TestTeeFansOut checks the Tee observer delivers to all children.
func TestTeeFansOut(t *testing.T) {
	aud := sim.NewAuditor(4)
	var n int
	countObs := observerFunc{onStmt: func(sim.StmtEvent) { n++ }}
	tee := &sim.Tee{Observers: []sim.Observer{aud, countObs}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Observer: tee})
	r := mem.NewReg("r")
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) { c.Write(r, 1); c.Read(r) })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 2 {
		t.Fatalf("tee delivered %d statements, want 2", n)
	}
	if aud.Err() != nil {
		t.Fatalf("auditor: %v", aud.Err())
	}
}

type observerFunc struct {
	onStmt func(sim.StmtEvent)
}

func (o observerFunc) OnStatement(ev sim.StmtEvent) {
	if o.onStmt != nil {
		o.onStmt(ev)
	}
}
func (o observerFunc) OnSchedule(sim.SchedEvent) {}
