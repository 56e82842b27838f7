package sim_test

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestSingleProcessRuns(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4})
	r := mem.NewReg("r")
	var saw mem.Word
	p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
	p.AddInvocation(func(c *sim.Ctx) {
		c.Write(r, 7)
		saw = c.Read(r)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if saw != 7 {
		t.Fatalf("read %d, want 7", saw)
	}
	if got := p.StmtsTotal(); got != 2 {
		t.Fatalf("statements = %d, want 2", got)
	}
	if got := p.CompletedInvocations(); got != 1 {
		t.Fatalf("completed invocations = %d, want 1", got)
	}
}

func TestRunTwiceFails(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 1})
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) { c.Local(1) })
	if err := sys.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := sys.Run(); !errors.Is(err, sim.ErrRunTwice) {
		t.Fatalf("second Run = %v, want ErrRunTwice", err)
	}
}

func TestStepLimit(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 1, MaxSteps: 10})
	r := mem.NewReg("spin")
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			for c.Read(r) == mem.Bottom {
			}
		})
	if err := sys.Run(); !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("Run = %v, want ErrStepLimit", err)
	}
}

func TestProcessPanicSurfaces(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 1})
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "boom"}).
		AddInvocation(func(c *sim.Ctx) {
			c.Local(1)
			panic("kaboom")
		})
	err := sys.Run()
	if err == nil {
		t.Fatal("Run succeeded, want panic error")
	}
}

// TestPriorityPreemption checks Axiom 1: a higher-priority arrival runs
// to completion before the lower-priority process resumes. With the
// Rotate chooser the high-priority process arrives at the first legal
// opportunity.
func TestPriorityPreemption(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 100, Chooser: sched.NewRotate()})
	r := mem.NewReg("r")
	var order []int

	lo := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "lo"})
	lo.AddInvocation(func(c *sim.Ctx) {
		for i := 0; i < 5; i++ {
			c.Write(r, 1)
			order = append(order, 1)
		}
	})
	hi := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2, Name: "hi"})
	hi.AddInvocation(func(c *sim.Ctx) {
		for i := 0; i < 5; i++ {
			c.Write(r, 2)
			order = append(order, 2)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Once the high-priority process has run its first statement, all its
	// statements must be contiguous (nothing can preempt it).
	first := -1
	for i, v := range order {
		if v == 2 {
			first = i
			break
		}
	}
	if first == -1 {
		t.Fatal("high-priority process never ran")
	}
	for i := first; i < first+5; i++ {
		if order[i] != 2 {
			t.Fatalf("high-priority run not contiguous: order=%v", order)
		}
	}
}

// TestQuantumProtection checks Axiom 2: after a same-priority
// preemption, the victim executes at least Q statements before the next
// same-priority preemption.
func TestQuantumProtection(t *testing.T) {
	const q = 5
	sys := sim.New(sim.Config{Processors: 1, Quantum: q, Chooser: sched.NewRotate()})
	var order []int
	mk := func(id int) sim.Invocation {
		return func(c *sim.Ctx) {
			for i := 0; i < 3*q; i++ {
				c.Local(1)
				order = append(order, id)
			}
		}
	}
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "a"}).AddInvocation(mk(0))
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "b"}).AddInvocation(mk(1))
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Verify: between two runs of the same process separated by the other
	// process, each resumed burst (other than a final partial one before
	// invocation end) has length >= q once the process has been preempted.
	burstLens := make(map[int][]int)
	cur, n := order[0], 0
	for _, v := range order {
		if v == cur {
			n++
			continue
		}
		burstLens[cur] = append(burstLens[cur], n)
		cur, n = v, 1
	}
	burstLens[cur] = append(burstLens[cur], n)
	for id, bursts := range burstLens {
		// Every burst after the first must be >= q, except the last burst
		// of a process (its invocation may end early).
		for i := 1; i < len(bursts)-1; i++ {
			if bursts[i] < q {
				t.Fatalf("process %d resumed burst %d has %d < Q=%d statements; bursts=%v",
					id, i, bursts[i], q, bursts)
			}
		}
	}
}

// sharedRegisterSystem builds one process on each of two processors,
// both writing and reading one shared register; done[i] reports that
// process i finished.
func sharedRegisterSystem(ch sim.Chooser) (sys *sim.System, done []bool) {
	sys = sim.New(sim.Config{Processors: 2, Quantum: 3, Chooser: ch})
	r := mem.NewReg("shared")
	done = make([]bool, 2)
	for i := 0; i < 2; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: i, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				for j := 0; j < 10; j++ {
					c.Write(r, mem.Word(i))
					c.Read(r)
				}
				done[i] = true
			})
	}
	return sys, done
}

// TestMultiprocessorIsolation checks that processes on different
// processors interleave freely (no cross-processor preemption rules).
func TestMultiprocessorIsolation(t *testing.T) {
	sys, done := sharedRegisterSystem(sched.NewUniform(1))
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done[0] || !done[1] {
		t.Fatalf("not all processes completed: %v", done)
	}
}

// TestThinkingArrival checks the invocation lifecycle: a process's
// second invocation begins only after its first completed.
func TestThinkingArrival(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: sched.NewUniform(7)})
	count := 0
	p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
	for i := 0; i < 3; i++ {
		p.AddInvocation(func(c *sim.Ctx) {
			c.Local(2)
			count++
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 {
		t.Fatalf("invocations run = %d, want 3", count)
	}
	if p.CompletedInvocations() != 3 {
		t.Fatalf("CompletedInvocations = %d, want 3", p.CompletedInvocations())
	}
	if p.MaxInvStmts() != 2 {
		t.Fatalf("MaxInvStmts = %d, want 2", p.MaxInvStmts())
	}
}

// TestObserverEvents checks statement and scheduling events fire.
func TestObserverEvents(t *testing.T) {
	obs := &recordingObserver{}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Observer: obs})
	r := mem.NewReg("x")
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			c.Write(r, 5)
			c.Read(r)
		})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(obs.stmts) != 2 {
		t.Fatalf("statements observed = %d, want 2", len(obs.stmts))
	}
	if obs.stmts[0].Op != sim.OpWrite || obs.stmts[1].Op != sim.OpRead {
		t.Fatalf("ops = %v,%v want W,R", obs.stmts[0].Op, obs.stmts[1].Op)
	}
	wantSched := []sim.SchedKind{sim.SchedArrive, sim.SchedInvEnd, sim.SchedProcDone}
	if len(obs.scheds) != len(wantSched) {
		t.Fatalf("sched events = %v", obs.scheds)
	}
	for i, k := range wantSched {
		if obs.scheds[i].Kind != k {
			t.Fatalf("sched event %d = %v, want %v", i, obs.scheds[i].Kind, k)
		}
	}
}

type recordingObserver struct {
	stmts  []sim.StmtEvent
	scheds []sim.SchedEvent
}

func (o *recordingObserver) OnStatement(ev sim.StmtEvent) { o.stmts = append(o.stmts, ev) }
func (o *recordingObserver) OnSchedule(ev sim.SchedEvent) { o.scheds = append(o.scheds, ev) }
