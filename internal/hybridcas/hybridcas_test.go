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

// casCounterBuilder has n processes spread over V priority levels, each
// performing opsPer increments via a CAS retry loop. Verifies the final
// value, total successes, and chain length.
func casCounterBuilder(n, levels, opsPer, quantum int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 20})
		obj := hybridcas.New("cas", levels, 0)
		succ := 0
		for i := 0; i < n; i++ {
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%levels, Name: fmt.Sprintf("p%d", i)})
			for k := 0; k < opsPer; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					for {
						v := obj.Read(c)
						if obj.CompareAndSwap(c, v, v+1) {
							succ++
							return
						}
					}
				})
			}
		}
		// Pool the system: a rerun swaps in a fresh object under the
		// same name (the invocations capture the variable).
		sys.OnReset(func() {
			obj = hybridcas.New("cas", levels, 0)
			succ = 0
		})
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			want := mem.Word(n * opsPer)
			if got := obj.Peek(); got != want {
				return fmt.Errorf("final = %d, want %d", got, want)
			}
			if succ != n*opsPer {
				return fmt.Errorf("successes = %d, want %d", succ, n*opsPer)
			}
			if got := obj.ChainLen(); got != n*opsPer {
				return fmt.Errorf("chain length = %d, want %d", got, n*opsPer)
			}
			return nil
		}
		return sys, verify
	}
}

func TestCASSolo(t *testing.T) {
	res := check.ExploreAll(casCounterBuilder(1, 1, 3, hybridcas.RecommendedQuantum), check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

func TestCASExhaustiveTwoProcsOneLevel(t *testing.T) {
	res := check.ExploreBudget(casCounterBuilder(2, 1, 1, hybridcas.RecommendedQuantum), 3,
		check.Options{MaxSchedules: 200000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

func TestCASExhaustiveTwoProcsTwoLevels(t *testing.T) {
	res := check.ExploreBudget(casCounterBuilder(2, 2, 1, hybridcas.RecommendedQuantum), 3,
		check.Options{MaxSchedules: 200000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

func TestCASFuzz(t *testing.T) {
	for _, cfg := range []struct{ n, levels, ops, q int }{
		{2, 2, 3, hybridcas.RecommendedQuantum},
		{4, 2, 2, hybridcas.RecommendedQuantum},
		{4, 4, 2, hybridcas.RecommendedQuantum},
		{6, 3, 2, hybridcas.RecommendedQuantum},
		{3, 3, 2, hybridcas.MinQuantum}, // safety at the minimum quantum
	} {
		res := check.Fuzz(casCounterBuilder(cfg.n, cfg.levels, cfg.ops, cfg.q), 200, check.Options{})
		if !res.OK() {
			t.Fatalf("cfg=%+v: violation: %+v", cfg, res.First())
		}
	}
}

// TestCASDisjointExhaustive explores CAS(0→1) vs CAS(0→2) across two
// priority levels: exactly one succeeds.
func TestCASDisjointExhaustive(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: ch, MaxSteps: 1 << 18})
		obj := hybridcas.New("cas", 2, 0)
		ok := make([]bool, 2)
		for i := 0; i < 2; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: i + 1}).
				AddInvocation(func(c *sim.Ctx) {
					ok[i] = obj.CompareAndSwap(c, 0, mem.Word(i+1))
				})
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			final := obj.Peek()
			switch {
			case ok[0] == ok[1]:
				return fmt.Errorf("ok=%v final=%d: want exactly one success", ok, final)
			case ok[0] && final != 1, ok[1] && final != 2:
				return fmt.Errorf("ok=%v but final=%d", ok, final)
			}
			return nil
		}
		return sys, verify
	}
	res := check.ExploreBudget(build, 3, check.Options{MaxSchedules: 200000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules", res.Schedules)
}

// TestReadNeverSeesUnwrittenValue fuzzes readers against CAS writers:
// every read must be a value the counter actually reaches (0..total).
func TestReadNeverSeesUnwrittenValue(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		const writers, readers, opsPer = 3, 2, 2
		sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: ch, MaxSteps: 1 << 20})
		obj := hybridcas.New("cas", 3, 100)
		reads := make([][]mem.Word, readers)
		for i := 0; i < writers; i++ {
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%3})
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
		for i := 0; i < readers; i++ {
			i := i
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%3})
			for k := 0; k < 3; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					reads[i] = append(reads[i], obj.Read(c))
				})
			}
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			for i := range reads {
				for k, v := range reads[i] {
					if v < 100 || v > 100+writers*opsPer {
						return fmt.Errorf("reader %d read %d, outside reachable range", i, v)
					}
					if k > 0 && v < reads[i][k-1] {
						return fmt.Errorf("reader %d ran backwards: %v", i, reads[i])
					}
				}
			}
			return nil
		}
		return sys, verify
	}
	res := check.Fuzz(build, 300, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

// TestCASTrivialSemantics checks CAS(x,x) and failing CAS don't append
// cells.
func TestCASTrivialSemantics(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum})
	obj := hybridcas.New("cas", 1, 5)
	var okSame, okWrongOld bool
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			okSame = obj.CompareAndSwap(c, 5, 5)
			okWrongOld = obj.CompareAndSwap(c, 6, 7)
		})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !okSame {
		t.Error("CAS(5,5) on value 5 failed, want success")
	}
	if okWrongOld {
		t.Error("CAS(6,7) on value 5 succeeded, want failure")
	}
	if got := obj.ChainLen(); got != 0 {
		t.Errorf("trivial operations appended %d cells, want 0", got)
	}
	if got := obj.Peek(); got != 5 {
		t.Errorf("final = %d, want 5", got)
	}
}

// TestStatementCostLinearInV measures the per-operation statement cost
// as V grows with everything else fixed: Theorem 2's O(V) bound. The
// cost must grow by roughly 2 statements per extra level (the scan) and
// must not blow up.
func TestStatementCostLinearInV(t *testing.T) {
	cost := func(levels int) int64 {
		sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: sched.NewUniform(42)})
		obj := hybridcas.New("cas", levels, 0)
		n := 4
		var worst int64
		procs := make([]*sim.Process, n)
		for i := 0; i < n; i++ {
			procs[i] = sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%levels})
			for k := 0; k < 3; k++ {
				procs[i].AddInvocation(func(c *sim.Ctx) {
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
			t.Fatalf("levels=%d: %v", levels, err)
		}
		for _, p := range procs {
			if p.MaxInvStmts() > worst {
				worst = p.MaxInvStmts()
			}
		}
		return worst
	}
	c1, c8, c32 := cost(1), cost(8), cost(32)
	t.Logf("worst-case statements/op: V=1:%d V=8:%d V=32:%d", c1, c8, c32)
	// Linear shape: incremental cost per level stays bounded (scan is 2
	// statements per level; allow generous constant-factor headroom for
	// retries), and is clearly sublinear in any superlinear alternative.
	if c32-c8 > 24*12 {
		t.Errorf("cost growth V=8→32 is %d, too steep for O(V)", c32-c8)
	}
	if c8 <= c1 {
		t.Logf("note: V=8 cost %d <= V=1 cost %d (scan cost hidden by retries)", c8, c1)
	}
}

// TestWalkStaysShort checks the head-hint staleness bound empirically:
// the longest walk should stay within the in-flight operation bound.
func TestWalkStaysShort(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: sched.NewUniform(9)})
	const n = 6
	obj := hybridcas.New("cas", 3, 0)
	for i := 0; i < n; i++ {
		p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%3})
		for k := 0; k < 4; k++ {
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
	if obj.MaxWalk() > 2*n+2 {
		t.Errorf("max walk %d exceeds in-flight bound %d", obj.MaxWalk(), 2*n+2)
	}
	t.Logf("max walk = %d", obj.MaxWalk())
}
