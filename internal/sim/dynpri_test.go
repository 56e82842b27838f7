package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// TestDynamicPriorityApplies checks that AddInvocationPri changes the
// process's priority between invocations: a process boosted above a
// peer must run its boosted invocation without same-level preemption.
func TestDynamicPriorityApplies(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: sched.NewRotate()})
	var order []string
	a := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1, Name: "a"})
	a.AddInvocation(func(c *sim.Ctx) {
		for i := 0; i < 4; i++ {
			c.Local(1)
			order = append(order, fmt.Sprintf("a@%d", c.Pri()))
		}
	})
	a.AddInvocationPri(3, func(c *sim.Ctx) {
		for i := 0; i < 4; i++ {
			c.Local(1)
			order = append(order, fmt.Sprintf("A@%d", c.Pri()))
		}
	})
	b := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2, Name: "b"})
	b.AddInvocation(func(c *sim.Ctx) {
		for i := 0; i < 8; i++ {
			c.Local(1)
			order = append(order, "b")
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Invocation A (priority 3) must be contiguous: nothing outranks it.
	first := -1
	for i, s := range order {
		if s == "A@3" {
			first = i
			break
		}
	}
	if first == -1 {
		t.Fatalf("boosted invocation never ran at priority 3: %v", order)
	}
	for i := first; i < first+4; i++ {
		if order[i] != "A@3" {
			t.Fatalf("boosted invocation preempted: %v", order)
		}
	}
	// The low-priority invocation must report priority 1.
	for _, s := range order {
		if s == "a@3" || s == "A@1" {
			t.Fatalf("priority changed mid-invocation: %v", order)
		}
	}
}

// fig3DynamicPriorities builds four processes that run three rounds of
// Fig. 3 consensus on fresh objects, changing priority between rounds.
func fig3DynamicPriorities(ch sim.Chooser) (*sim.System, check.Verify) {
	const n, rounds = 4, 3
	sys := sim.New(sim.Config{Processors: 1, Quantum: unicons.MinQuantum, Chooser: ch, MaxSteps: 1 << 18})
	objs := make([]*unicons.Object, rounds)
	for r := range objs {
		objs[r] = unicons.New(fmt.Sprintf("cons%d", r))
	}
	outs := make([][]mem.Word, n)
	for i := 0; i < n; i++ {
		i := i
		p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%2})
		outs[i] = make([]mem.Word, rounds)
		for r := 0; r < rounds; r++ {
			r := r
			// Rotate priorities between rounds: dynamic priorities.
			p.AddInvocationPri(1+(i+r)%3, func(c *sim.Ctx) {
				outs[i][r] = objs[r].Decide(c, mem.Word(i*10+r+1))
			})
		}
	}
	verify := func(runErr error) error {
		if runErr != nil {
			return fmt.Errorf("run failed: %w", runErr)
		}
		for r := 0; r < rounds; r++ {
			for i := 1; i < n; i++ {
				if outs[i][r] != outs[0][r] {
					return fmt.Errorf("round %d disagreement: %v", r, outs)
				}
			}
			if outs[0][r] == mem.Bottom {
				return fmt.Errorf("round %d decided ⊥", r)
			}
		}
		return nil
	}
	return sys, verify
}

// TestFig3UnderDynamicPriorities verifies the §5 claim that the Fig. 3
// consensus algorithm is correct as stated in dynamic-priority systems:
// processes change priority between repeated decides on fresh objects.
func TestFig3UnderDynamicPriorities(t *testing.T) {
	build := fig3DynamicPriorities
	res := check.Fuzz(build, 500, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
	res = check.ExploreBudget(build, 2, check.Options{MaxSchedules: 30000})
	if !res.OK() {
		t.Fatalf("budgeted violation: %+v", res.First())
	}
}
