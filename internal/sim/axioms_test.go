package sim_test

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestAxiom2SurvivesHighPriorityPreemption pins the paper's central
// scheduling subtlety: "each process p is guaranteed to execute at least
// Q statements between preemptions by processes of equal priority, EVEN
// IF p is preempted by higher-priority processes." A high-priority
// interruption must not reset or consume the victim's quantum.
func TestAxiom2SurvivesHighPriorityPreemption(t *testing.T) {
	const q = 6
	// Chooser: let lo-A run 2 statements, then same-level preempt by
	// lo-B (1 stmt), then back to lo-A (protected, must get 6), with the
	// high-priority process arriving in the middle of lo-A's protected
	// run.
	var order []string
	step := 0
	ch := sim.ChooserFunc(func(d sim.Decision) int {
		step++
		pick := func(name string) int {
			for i, p := range d.Candidates {
				if p.Name() == name {
					return i
				}
			}
			return -1
		}
		var want string
		switch {
		case step <= 2:
			want = "loA"
		case step == 3:
			want = "loB" // same-priority preemption of loA
		case step <= 6:
			want = "loA" // loA resumes under protection
		case step == 7:
			want = "hi" // high-priority arrival mid-quantum
		default:
			want = "loA"
		}
		if i := pick(want); i >= 0 {
			return i
		}
		return 0
	})
	sys := sim.New(sim.Config{Processors: 1, Quantum: q, Chooser: ch})
	loA := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "loA"})
	loA.AddInvocation(func(c *sim.Ctx) {
		for i := 0; i < 3*q; i++ {
			c.Local(1)
			order = append(order, "loA")
		}
	})
	loB := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "loB"})
	loB.AddInvocation(func(c *sim.Ctx) {
		for i := 0; i < q; i++ {
			c.Local(1)
			order = append(order, "loB")
		}
	})
	hi := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2, Name: "hi"})
	hi.AddInvocation(func(c *sim.Ctx) {
		for i := 0; i < 3; i++ {
			c.Local(1)
			order = append(order, "hi")
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Find loA's post-preemption burst: from its resumption after loB's
	// first statement, count loA statements until the next loB
	// statement. The hi interruption must not break the guarantee.
	firstB := -1
	for i, s := range order {
		if s == "loB" {
			firstB = i
			break
		}
	}
	if firstB == -1 {
		t.Fatalf("loB never ran: %v", order)
	}
	countA := 0
	for _, s := range order[firstB+1:] {
		switch s {
		case "loA":
			countA++
		case "loB":
			if countA < q {
				t.Fatalf("loA re-preempted by same level after only %d < Q=%d statements (hi interruptions must not consume the quantum): %v",
					countA, q, order)
			}
			return
		case "hi":
			// High-priority interruption: allowed at any time, must not
			// affect loA's same-priority quantum accounting.
		}
	}
}

// TestZeroQuantumIsPurePriority checks Q=0: same-priority preemption is
// legal at every statement boundary (a purely priority-scheduled
// system), and algorithms relying on the quantum are breakable while
// distinct-priority scheduling still works.
func TestZeroQuantumIsPurePriority(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 0, Chooser: sched.NewRotate()})
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				for k := 0; k < 4; k++ {
					c.Local(1)
					order = append(order, i)
				}
			})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With Q=0 and Rotate, strict alternation is legal and expected.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("Q=0 should allow alternation at every statement: %v", order)
		}
	}
}

// TestProcessorsScheduleIndependently verifies that a protected quantum
// on one processor does not constrain scheduling on another.
func TestProcessorsScheduleIndependently(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 2, Quantum: 8, Chooser: sched.NewRotate()})
	counts := make(map[int]int)
	for proc := 0; proc < 2; proc++ {
		for j := 0; j < 2; j++ {
			id := proc*2 + j
			sys.AddProcess(sim.ProcSpec{Processor: proc, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) {
					for k := 0; k < 6; k++ {
						c.Local(1)
						counts[id]++
					}
				})
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for id, n := range counts {
		if n != 6 {
			t.Fatalf("process %d executed %d statements, want 6", id, n)
		}
	}
}

// TestInvocationEndReleasesProtection: protection lapses when the
// invocation terminates ("or until its object invocation terminates"),
// so a same-priority peer may run immediately after, even if fewer than
// Q statements were executed since the preemption.
func TestInvocationEndReleasesProtection(t *testing.T) {
	const q = 100 // huge quantum: only invocation end can release
	sys := sim.New(sim.Config{Processors: 1, Quantum: q, Chooser: sched.NewRotate()})
	var order []int
	a := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "a"})
	for inv := 0; inv < 2; inv++ {
		a.AddInvocation(func(c *sim.Ctx) {
			for k := 0; k < 3; k++ {
				c.Local(1)
				order = append(order, 0)
			}
		})
	}
	b := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "b"})
	b.AddInvocation(func(c *sim.Ctx) {
		for k := 0; k < 3; k++ {
			c.Local(1)
			order = append(order, 1)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// All three invocations complete despite Q=100 >> total statements:
	// protection cannot outlive an invocation.
	if len(order) != 9 {
		t.Fatalf("executed %d statements, want 9: %v", len(order), order)
	}
}

// TestStepLimitDuringProtection: aborting mid-protected-quantum must
// terminate cleanly (no goroutine deadlock).
func TestStepLimitDuringProtection(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 50, MaxSteps: 20, Chooser: sched.NewRotate()})
	for i := 0; i < 3; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				for {
					c.Local(1)
				}
			})
	}
	if err := sys.Run(); !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("Run = %v, want ErrStepLimit", err)
	}
}

// TestChooserOutOfRange: a buggy chooser is reported, not crashed on.
func TestChooserOutOfRange(t *testing.T) {
	ch := sim.ChooserFunc(func(d sim.Decision) int { return len(d.Candidates) })
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: ch})
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(2) })
	}
	if err := sys.Run(); err == nil {
		t.Fatal("out-of-range chooser accepted")
	}
}

// TestHigherPriorityAlwaysFirstWhenReady: once a higher-priority process
// is mid-invocation, nothing below it may run on that processor until it
// finishes (Axiom 1), regardless of the chooser.
func TestHigherPriorityAlwaysFirstWhenReady(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: sched.NewUniform(seed)})
		r := mem.NewReg("r")
		var order []int
		for i, pri := range []int{1, 3, 2} {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: pri}).
				AddInvocation(func(c *sim.Ctx) {
					for k := 0; k < 4; k++ {
						c.Write(r, mem.Word(i))
						order = append(order, i)
					}
				})
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Statements of process 1 (priority 3) must be contiguous.
		first, last := -1, -1
		for i, v := range order {
			if v == 1 {
				if first == -1 {
					first = i
				}
				last = i
			}
		}
		if last-first != 3 {
			t.Fatalf("seed %d: priority-3 run not contiguous: %v", seed, order)
		}
	}
}
