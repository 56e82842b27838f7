package hybridcas_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/hybridcas"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// reclaimCounterBuilder mirrors casCounterBuilder over a reclaiming
// object.
func reclaimCounterBuilder(n, levels, opsPer, quantum, threshold int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 21})
		obj := hybridcas.NewReclaiming("cas", levels, 0, threshold)
		for i := 0; i < n; i++ {
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%levels})
			for k := 0; k < opsPer; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					for {
						v := obj.Read(c)
						if obj.CompareAndSwap(c, v, v+1) {
							return
						}
					}
				})
			}
		}
		sys.OnReset(func() {
			obj = hybridcas.NewReclaiming("cas", levels, 0, threshold)
		})
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			want := mem.Word(n * opsPer)
			if got := obj.Peek(); got != want {
				return fmt.Errorf("final = %d, want %d", got, want)
			}
			if got := obj.ChainLen(); got != n*opsPer {
				return fmt.Errorf("appends = %d, want %d", got, n*opsPer)
			}
			return nil
		}
		return sys, verify
	}
}

// TestReclaimCorrectUnderFuzz re-runs the counter workload over the
// reclaiming object under heavy schedule fuzzing: the reclaimed-cell
// panic in cellAt makes any unsafe free fatal and therefore detectable.
func TestReclaimCorrectUnderFuzz(t *testing.T) {
	for _, cfg := range []struct{ n, levels, ops, q, thr int }{
		{4, 2, 4, hybridcas.RecommendedQuantum, 2},
		{6, 3, 3, hybridcas.RecommendedQuantum, 1},
		{3, 1, 5, hybridcas.RecommendedQuantum, 3},
	} {
		res := check.Fuzz(reclaimCounterBuilder(cfg.n, cfg.levels, cfg.ops, cfg.q, cfg.thr), 250, check.Options{})
		if !res.OK() {
			t.Fatalf("cfg=%+v: violation: %+v", cfg, res.First())
		}
	}
}

// TestReclaimCorrectExhaustive explores every ≤3-deviation schedule of a
// small reclaiming configuration.
func TestReclaimCorrectExhaustive(t *testing.T) {
	res := check.ExploreBudget(reclaimCounterBuilder(2, 1, 2, hybridcas.RecommendedQuantum, 1), 3,
		check.Options{MaxSchedules: 20000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

// TestReclaimBoundedMemory pins the storage bound: as long as every
// priority level keeps accessing the object (here: one level), a long
// workload keeps live cells near O(N + V + threshold) instead of
// O(total ops). With idle levels reclamation stalls conservatively —
// the epoch-reclamation analogy documented in reclaim.go.
func TestReclaimBoundedMemory(t *testing.T) {
	const n, opsPer, threshold = 4, 40, 2
	sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum,
		Chooser: sched.NewRandom(11), MaxSteps: 1 << 23})
	obj := hybridcas.NewReclaiming("cas", 1, 0, threshold)
	for i := 0; i < n; i++ {
		p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
		for k := 0; k < opsPer; k++ {
			p.AddInvocation(func(c *sim.Ctx) {
				for {
					v := obj.Read(c)
					if obj.CompareAndSwap(c, v, v+1) {
						return
					}
				}
			})
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := obj.Peek(); got != n*opsPer {
		t.Fatalf("final = %d, want %d", got, n*opsPer)
	}
	if obj.FreedCells() == 0 {
		t.Fatal("reclamation never freed a cell")
	}
	// Total cells ever allocated is >= n*opsPer (one per successful op,
	// plus failed attempts); live cells must stay far below that.
	bound := 8 * (n + 2 + threshold)
	if live := obj.LiveCells(); live > bound {
		t.Fatalf("live cells = %d exceeds bound %d (freed %d)", live, bound, obj.FreedCells())
	}
	t.Logf("live=%d freed=%d appends=%d", obj.LiveCells(), obj.FreedCells(), obj.ChainLen())
}

// TestReclaimRejectsBadThreshold pins the constructor guard.
func TestReclaimRejectsBadThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("threshold 0 accepted")
		}
	}()
	hybridcas.NewReclaiming("bad", 1, 0, 0)
}
