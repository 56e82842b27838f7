package sched_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runOrder executes two 3-invocation-statement processes under the
// given chooser and returns the sequence of executing process IDs.
func runOrder(t *testing.T, ch sim.Chooser, quantum, stmts int) []int {
	t.Helper()
	sys := sim.New(sim.Config{Processors: 1, Quantum: quantum, Chooser: ch})
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				for k := 0; k < stmts; k++ {
					c.Local(1)
					order = append(order, i)
				}
			})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return order
}

func switches(order []int) int {
	n := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			n++
		}
	}
	return n
}

func TestRunToCompletionNoSwitchMidInvocation(t *testing.T) {
	order := runOrder(t, &sched.RunToCompletion{}, 2, 6)
	if got := switches(order); got != 1 {
		t.Fatalf("switches = %d, want exactly 1 (between invocations): %v", got, order)
	}
}

func TestRotateMaximalSwitching(t *testing.T) {
	const q = 3
	order := runOrder(t, sched.NewRotate(), q, 3*q)
	// Rotate preempts at every legal opportunity: after the initial
	// anytime-preemption, every burst is exactly Q statements.
	if got := switches(order); got < 4 {
		t.Fatalf("switches = %d, want >= 4 under Rotate: %v", got, order)
	}
}

func TestFirstChooserDeterministic(t *testing.T) {
	a := runOrder(t, sim.FirstChooser{}, 4, 8)
	b := runOrder(t, sim.FirstChooser{}, 4, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FirstChooser not deterministic")
		}
	}
}

func TestRandomReproducible(t *testing.T) {
	a := runOrder(t, sched.NewUniform(99), 4, 8)
	b := runOrder(t, sched.NewUniform(99), 4, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	c := runOrder(t, sched.NewUniform(100), 4, 8)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("note: seeds 99 and 100 coincide (possible but unlikely)")
	}
}

// TestStaggerPhasesDiffer: different stagger phases must produce
// different interleavings (that is the point of the adversary battery).
func TestStaggerPhasesDiffer(t *testing.T) {
	const q = 4
	a := runOrder(t, sched.NewStagger(q, 0), q, 3*q)
	b := runOrder(t, sched.NewStagger(q, 1), q, 3*q)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("phases 0 and 1 produced identical schedules: %v", a)
	}
}

// TestStaggerBurstsRespectQuantum: after its offset burst, each process
// runs in bursts of exactly the period (when both remain runnable).
func TestStaggerBurstsRespectQuantum(t *testing.T) {
	const q = 5
	order := runOrder(t, sched.NewStagger(q, 0), q, 4*q)
	// Interior bursts must be >= q by Axiom 2 and == q by the adversary.
	var bursts []int
	cur, n := order[0], 0
	for _, v := range order {
		if v == cur {
			n++
			continue
		}
		bursts = append(bursts, n)
		cur, n = v, 1
	}
	// bursts[0] and bursts[1] are the two processes' stagger offsets;
	// the last burst may be a remainder. Everything in between must be
	// exactly one period.
	for i := 2; i < len(bursts)-1; i++ {
		if bursts[i] != q {
			t.Fatalf("interior burst %d has %d statements, want %d: %v", i, bursts[i], q, bursts)
		}
	}
	if len(bursts) < 5 {
		t.Fatalf("too few bursts for a meaningful check: %v", bursts)
	}
}

func TestScriptRecordsFanouts(t *testing.T) {
	s := &sched.Script{Decisions: []int{1}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: s})
	r := mem.NewReg("r")
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Write(r, 1); c.Read(r) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(s.Fanouts) == 0 {
		t.Fatal("no fanouts recorded")
	}
	for _, f := range s.Fanouts {
		if f < 2 {
			t.Fatalf("decision with fanout %d reached chooser (kernel resolves singletons)", f)
		}
	}
}

func TestBudgetedSwitchRecordsTaken(t *testing.T) {
	b := &sched.BudgetedSwitch{SwitchAt: []sched.Switch{{At: 0, Choice: 1}}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: b})
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(3) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(b.Taken) != len(b.Fanouts) {
		t.Fatalf("taken %d != fanouts %d", len(b.Taken), len(b.Fanouts))
	}
	if b.Taken[0] != 1 {
		t.Fatalf("scripted switch not taken: %v", b.Taken)
	}
}

// TestScriptClampFlagged: a scripted decision beyond the fan-out is
// clamped to the last candidate and flagged, so callers can tell the
// replay aliased a different (in-range) decision vector.
func TestScriptClampFlagged(t *testing.T) {
	s := &sched.Script{Decisions: []int{7}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: s})
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(1) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.Clamped {
		t.Fatal("Clamped=false, want true")
	}
}

// TestScriptInRangeNotClamped: valid decision vectors must not trip the
// alias flag.
func TestScriptInRangeNotClamped(t *testing.T) {
	s := &sched.Script{Decisions: []int{1}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: s})
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(1) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Clamped {
		t.Fatal("Clamped=true, want false")
	}
}

// TestBudgetedSwitchClampFlagged is the BudgetedSwitch analogue of
// TestScriptClampFlagged.
func TestBudgetedSwitchClampFlagged(t *testing.T) {
	b := &sched.BudgetedSwitch{SwitchAt: []sched.Switch{{At: 0, Choice: 9}}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: b})
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(3) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !b.Clamped {
		t.Fatal("Clamped=false, want true")
	}
}
