package unicons_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// consensusBuilder builds a uniprocessor system in which each of the n
// processes (with the given priorities) decides with proposal id+1, and
// verifies agreement, validity, and the constant step bound.
func consensusBuilder(n, quantum int, priorities []int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 16})
		obj := unicons.New("cons")
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			pri := 1
			if priorities != nil {
				pri = priorities[i]
			}
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: pri, Name: fmt.Sprintf("p%d", i)}).
				AddInvocation(func(c *sim.Ctx) {
					outs[i] = obj.Decide(c, mem.Word(i+1))
				})
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			return verifyConsensus(sys, outs, n)
		}
		return sys, verify
	}
}

func verifyConsensus(sys *sim.System, outs []mem.Word, n int) error {
	first := outs[0]
	for i, v := range outs {
		if v == mem.Bottom {
			return fmt.Errorf("process %d decided ⊥", i)
		}
		if v != first {
			return fmt.Errorf("agreement violated: outs=%v", outs)
		}
		if v < 1 || v > mem.Word(n) {
			return fmt.Errorf("validity violated: decided %d not a proposal", v)
		}
	}
	for _, p := range sys.Processes() {
		if p.MaxInvStmts() > unicons.Stmts {
			return fmt.Errorf("process %s took %d statements, want <= %d",
				p.Name(), p.MaxInvStmts(), unicons.Stmts)
		}
	}
	return nil
}

func TestDecideSolo(t *testing.T) {
	res := check.ExploreAll(consensusBuilder(1, unicons.MinQuantum, nil), check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
	if res.Schedules != 1 {
		t.Fatalf("schedules = %d, want 1", res.Schedules)
	}
}

// TestDecideExhaustiveTwoProcs verifies agreement/validity over the FULL
// schedule tree for two same-priority processes with Q = 8.
func TestDecideExhaustiveTwoProcs(t *testing.T) {
	res := check.ExploreAll(consensusBuilder(2, unicons.MinQuantum, nil), check.Options{MaxSchedules: 500000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	if res.Truncated {
		t.Fatalf("exploration truncated at %d schedules", res.Schedules)
	}
	t.Logf("verified %d schedules", res.Schedules)
}

// TestDecideExhaustiveTwoPrios verifies the full schedule tree for two
// processes at different priorities (pure priority-based preemption).
func TestDecideExhaustiveTwoPrios(t *testing.T) {
	res := check.ExploreAll(consensusBuilder(2, unicons.MinQuantum, []int{1, 2}), check.Options{MaxSchedules: 500000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	if res.Truncated {
		t.Fatal("exploration truncated")
	}
}

// TestDecideBudgetedThreeProcs verifies all schedules with up to 3
// deviations for three processes across two priority levels.
func TestDecideBudgetedThreeProcs(t *testing.T) {
	res := check.ExploreBudget(consensusBuilder(3, unicons.MinQuantum, []int{1, 1, 2}), 3,
		check.Options{MaxSchedules: 400000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

// TestDecideFuzz fuzzes larger configurations: up to 8 processes over 3
// priority levels.
func TestDecideFuzz(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		pri := make([]int, n)
		for i := range pri {
			pri[i] = 1 + i%3
		}
		res := check.Fuzz(consensusBuilder(n, unicons.MinQuantum, pri), 500, check.Options{})
		if !res.OK() {
			t.Fatalf("n=%d: violation: %+v", n, res.First())
		}
	}
}

// TestDecideSmallQuantumFails locks in the quantum requirement: with a
// quantum well below MinQuantum (so a process can be quantum-preempted
// more than once per invocation), some schedule must violate agreement.
// This is the negative control for Theorem 1's premise.
func TestDecideSmallQuantumFails(t *testing.T) {
	for q := 1; q <= 3; q++ {
		res := check.ExploreBudget(consensusBuilder(3, q, nil), 3,
			check.Options{MaxSchedules: 300000, StopAtFirst: true})
		if !res.OK() {
			t.Logf("Q=%d: found violating schedule after %d schedules: %v",
				q, res.Schedules, res.First().Err)
			return
		}
	}
	t.Fatal("no agreement violation found for Q in 1..3; quantum premise seems unnecessary (model error?)")
}

// TestReadValueBeforeAndAfter verifies ReadValue returns ⊥ before any
// decision and the decided value after.
func TestReadValueBeforeAndAfter(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: unicons.MinQuantum})
	obj := unicons.New("cons")
	var before, after, decided mem.Word
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			before = obj.ReadValue(c)
			decided = obj.Decide(c, 42)
			after = obj.ReadValue(c)
		})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before != mem.Bottom {
		t.Fatalf("ReadValue before decide = %d, want ⊥", before)
	}
	if decided != 42 || after != 42 {
		t.Fatalf("decided=%d after=%d, want 42,42", decided, after)
	}
}

// TestReadValueAgreesUnderContention fuzzes concurrent Decide + ReadValue:
// any non-⊥ ReadValue must equal the consensus value.
func TestReadValueAgreesUnderContention(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		const n = 4
		sys := sim.New(sim.Config{Processors: 1, Quantum: unicons.MinQuantum + 1, Chooser: ch, MaxSteps: 1 << 16})
		obj := unicons.New("cons")
		outs := make([]mem.Word, n)
		reads := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%2}).
				AddInvocation(func(c *sim.Ctx) {
					outs[i] = obj.Decide(c, mem.Word(i+1))
					reads[i] = obj.ReadValue(c)
				})
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			for i := 1; i < n; i++ {
				if outs[i] != outs[0] {
					return fmt.Errorf("agreement violated: %v", outs)
				}
			}
			for i, r := range reads {
				if r != mem.Bottom && r != outs[0] {
					return fmt.Errorf("ReadValue[%d] = %d disagrees with decision %d", i, r, outs[0])
				}
			}
			return nil
		}
		return sys, verify
	}
	res := check.Fuzz(build, 800, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

// TestDecideProposalBottomPanics documents that proposing ⊥ is a caller
// error.
func TestDecideProposalBottomPanics(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: unicons.MinQuantum})
	obj := unicons.New("cons")
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			c.Local(1)
			obj.Decide(c, mem.Bottom)
		})
	if err := sys.Run(); err == nil {
		t.Fatal("Run succeeded, want error from ⊥ proposal")
	}
}

// TestConstantTimeAcrossN confirms Theorem 1's "constant time" claim:
// the per-invocation statement count does not grow with the number of
// processes or priority levels.
func TestConstantTimeAcrossN(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		sys := sim.New(sim.Config{Processors: 1, Quantum: unicons.MinQuantum, Chooser: sched.NewUniform(3)})
		obj := unicons.New("cons")
		for i := 0; i < n; i++ {
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%4}).
				AddInvocation(func(c *sim.Ctx) { obj.Decide(c, 9) })
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, p := range sys.Processes() {
			if p.MaxInvStmts() != unicons.Stmts {
				t.Fatalf("n=%d: process %s took %d statements, want exactly %d",
					n, p.Name(), p.MaxInvStmts(), unicons.Stmts)
			}
		}
	}
}

var errSentinel = errors.New("sentinel")

// TestVerifyErrorPropagation checks the check-package plumbing reports
// verifier errors.
func TestVerifyErrorPropagation(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 8, Chooser: ch})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(1) })
		return sys, func(error) error { return errSentinel }
	}
	res := check.Fuzz(build, 3, check.Options{})
	if res.OK() || !errors.Is(res.First().Err, errSentinel) {
		t.Fatalf("violations = %+v, want sentinel", res.Violations)
	}
}
