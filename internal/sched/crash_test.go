package sched_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// crashTrace runs n single-invocation processes under ch and returns
// (crashed flags, crash count).
func crashTrace(t *testing.T, ch sim.Chooser, n, stmts int) ([]bool, int) {
	t.Helper()
	sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: ch, MaxSteps: 1 << 14})
	procs := make([]*sim.Process, n)
	for i := 0; i < n; i++ {
		procs[i] = sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
		procs[i].AddInvocation(func(c *sim.Ctx) { c.Local(stmts) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	crashed := make([]bool, n)
	for i, p := range procs {
		crashed[i] = p.Crashed()
	}
	return crashed, sys.CrashedCount()
}

func TestCrashPlanFiresOncePerPoint(t *testing.T) {
	ch := sched.NewCrash(sim.FirstChooser{}, sched.CrashPoint{Proc: 1, Step: 2})
	crashed, n := crashTrace(t, ch, 3, 6)
	if n != 1 || !crashed[1] || crashed[0] || crashed[2] {
		t.Fatalf("crashed = %v (count %d), want only process 1", crashed, n)
	}
}

func TestCrashPlanMultipleVictims(t *testing.T) {
	ch := sched.NewCrash(sim.FirstChooser{},
		sched.CrashPoint{Proc: 0, Step: 1},
		sched.CrashPoint{Proc: 2, Step: 3})
	crashed, n := crashTrace(t, ch, 3, 6)
	if n != 2 || !crashed[0] || crashed[1] || !crashed[2] {
		t.Fatalf("crashed = %v (count %d), want processes 0 and 2", crashed, n)
	}
}

func TestCrashPlanIgnoresOutOfRangeProc(t *testing.T) {
	ch := sched.NewCrash(sim.FirstChooser{},
		sched.CrashPoint{Proc: -1, Step: 0},
		sched.CrashPoint{Proc: 99, Step: 0})
	_, n := crashTrace(t, ch, 2, 4)
	if n != 0 {
		t.Fatalf("out-of-range crash points fired: count %d", n)
	}
}

func TestCrashDelegatesSchedulingToInner(t *testing.T) {
	// The same inner chooser wrapped by a no-op crash plan must yield the
	// identical schedule.
	plain := runOrder(t, sched.NewUniform(7), 4, 8)
	wrapped := runOrder(t, sched.NewCrash(sched.NewUniform(7)), 4, 8)
	if len(plain) != len(wrapped) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(plain), len(wrapped))
	}
	for i := range plain {
		if plain[i] != wrapped[i] {
			t.Fatal("empty crash plan perturbed the inner chooser's schedule")
		}
	}
}

func TestRandomCrashReproducible(t *testing.T) {
	run := func(seed int64) []bool {
		ch := sched.NewRandomCrash(sched.NewUniform(seed), seed, 2, 0.1)
		crashed, _ := crashTrace(t, ch, 4, 10)
		return crashed
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different crash patterns")
		}
	}
}

func TestRandomCrashZeroBudgetInjectsNothing(t *testing.T) {
	ch := sched.NewRandomCrash(sched.NewUniform(3), 3, 0, 1.0)
	_, n := crashTrace(t, ch, 4, 10)
	if n != 0 || ch.Injected != 0 {
		t.Fatalf("zero-budget injector crashed %d (Injected=%d)", n, ch.Injected)
	}
}

func TestRandomCrashDefaultProb(t *testing.T) {
	ch := sched.NewRandomCrash(sim.FirstChooser{}, 1, 1, 0)
	if ch.Prob != sched.DefaultCrashProb {
		t.Fatalf("Prob = %v, want DefaultCrashProb", ch.Prob)
	}
}
