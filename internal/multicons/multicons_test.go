package multicons_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sim"
)

// fig7Builder builds P processors × M processes (priorities cycling
// through 1..V), each deciding once with proposal id+1, and verifies
// agreement and validity.
func fig7Builder(cfg multicons.Config, quantum int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: cfg.P, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 22})
		alg := multicons.New(cfg)
		n := cfg.P * cfg.M
		outs := make([]mem.Word, n)
		id := 0
		for i := 0; i < cfg.P; i++ {
			for j := 0; j < cfg.M; j++ {
				me := id
				sys.AddProcess(sim.ProcSpec{
					Processor: i,
					Priority:  1 + j%cfg.V,
					Name:      fmt.Sprintf("p%d.%d", i, j),
				}).AddInvocation(func(c *sim.Ctx) {
					outs[me] = alg.Decide(c, mem.Word(me+1))
				})
				id++
			}
		}
		// Pool the system: a rerun swaps in a fresh instance under the
		// same name (the invocations capture the variable).
		sys.OnReset(func() {
			alg = multicons.New(cfg)
			clear(outs)
		})
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			return verifyAgreement(outs, n)
		}
		return sys, verify
	}
}

func verifyAgreement(outs []mem.Word, n int) error {
	first := outs[0]
	for i, v := range outs {
		if v == mem.Bottom {
			return fmt.Errorf("process %d decided ⊥", i)
		}
		if v != first {
			return fmt.Errorf("agreement violated: outs=%v", outs)
		}
		if v < 1 || v > mem.Word(n) {
			return fmt.Errorf("validity violated: decided %d", v)
		}
	}
	return nil
}

// enough quantum for the Lemma 3 premise given this implementation's
// per-level statement cost.
const bigQ = 4096

func TestFig7Solo(t *testing.T) {
	cfg := multicons.Config{Name: "f7", P: 1, K: 0, M: 1, V: 1}
	res := check.ExploreAll(fig7Builder(cfg, bigQ), check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

func TestFig7LevelsFormula(t *testing.T) {
	for _, tc := range []struct {
		p, k, m, v int
		want       int
	}{
		// L = (K+1)M(1+P−K) + (P−K)²M + 1
		{1, 0, 1, 1, 1*1*2 + 1*1 + 1}, // 4
		{2, 0, 1, 1, 1*1*3 + 4*1 + 1}, // 8
		{2, 2, 1, 1, 3*1*1 + 0 + 1},   // 4
		{2, 1, 2, 1, 2*2*2 + 1*2 + 1}, // 11
		{4, 2, 3, 2, 3*3*3 + 4*3 + 1}, // 40
	} {
		cfg := multicons.Config{Name: "f7", P: tc.p, K: tc.k, M: tc.m, V: tc.v}
		if got := cfg.Levels(); got != tc.want {
			t.Errorf("Levels(P=%d K=%d M=%d) = %d, want %d", tc.p, tc.k, tc.m, got, tc.want)
		}
	}
}

func TestFig7TwoProcessorsExhaustiveBudget(t *testing.T) {
	cfg := multicons.Config{Name: "f7", P: 2, K: 0, M: 1, V: 1}
	// The full 2-deviation space is ~125k schedules (~100s); cap it to
	// keep the suite fast while still covering every early deviation.
	res := check.ExploreBudget(fig7Builder(cfg, bigQ), 2, check.Options{MaxSchedules: 15000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

func TestFig7Fuzz(t *testing.T) {
	for _, cfg := range []multicons.Config{
		{Name: "f7", P: 2, K: 0, M: 2, V: 1},
		{Name: "f7", P: 2, K: 1, M: 2, V: 2},
		{Name: "f7", P: 2, K: 2, M: 2, V: 2},
		{Name: "f7", P: 3, K: 1, M: 2, V: 2},
		{Name: "f7", P: 4, K: 2, M: 2, V: 2},
	} {
		res := check.Fuzz(fig7Builder(cfg, bigQ), 60, check.Options{})
		if !res.OK() {
			t.Fatalf("cfg=%+v: violation: %+v", cfg, res.First())
		}
	}
}

// TestFig7PortDiscipline verifies the port/election machinery caps every
// level's C-consensus object at C invocations (the paper's key resource
// invariant), under heavy adversarial fuzzing.
func TestFig7PortDiscipline(t *testing.T) {
	cfg := multicons.Config{Name: "f7", P: 2, K: 1, M: 3, V: 2}
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: cfg.P, Quantum: 64, Chooser: ch, MaxSteps: 1 << 22})
		alg := multicons.New(cfg)
		id := 0
		for i := 0; i < cfg.P; i++ {
			for j := 0; j < cfg.M; j++ {
				me := id
				sys.AddProcess(sim.ProcSpec{Processor: i, Priority: 1 + j%cfg.V}).
					AddInvocation(func(c *sim.Ctx) { alg.Decide(c, mem.Word(me+1)) })
				id++
			}
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			for l, inv := range alg.Invocations() {
				if l >= 1 && inv > cfg.C() {
					return fmt.Errorf("level %d invoked %d times > C=%d", l, inv, cfg.C())
				}
			}
			return nil
		}
		return sys, verify
	}
	// Note the small quantum: the port discipline must hold regardless
	// of Q (only agreement needs the Table 1 bound).
	res := check.Fuzz(build, 100, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

// TestFig7WaitFree bounds every process's own statements by a polynomial
// budget in (M, P, L) — Theorem 4's polynomial time claim.
func TestFig7WaitFree(t *testing.T) {
	cfg := multicons.Config{Name: "f7", P: 3, K: 1, M: 2, V: 2}
	build := fig7Builder(cfg, bigQ)
	budget := int64(200 * (cfg.Levels() + cfg.P*cfg.M)) // generous poly bound
	wrapped := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys, inner := build(ch)
		verify := func(runErr error) error {
			if err := inner(runErr); err != nil {
				return err
			}
			for _, p := range sys.Processes() {
				if p.MaxInvStmts() > budget {
					return fmt.Errorf("process %s took %d statements > budget %d",
						p.Name(), p.MaxInvStmts(), budget)
				}
			}
			return nil
		}
		return sys, verify
	}
	res := check.Fuzz(wrapped, 50, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

// fig9Builder builds a Fig. 9 (fair scheduling) instance. The chooser
// must be fair for termination (Random and Rotate are; FirstChooser is
// not).
func fig9Builder(p, v, k, n, quantum int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: p, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 22})
		alg := multicons.NewFair("f9", p, v, k)
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			me := i
			sys.AddProcess(sim.ProcSpec{
				Processor: i % p,
				Priority:  1 + (i/p)%v,
				Name:      fmt.Sprintf("p%d", i),
			}).AddInvocation(func(c *sim.Ctx) {
				outs[me] = alg.Decide(c, mem.Word(me+1))
			})
		}
		sys.OnReset(func() {
			alg = multicons.NewFair("f9", p, v, k)
			clear(outs)
		})
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			return verifyAgreement(outs, n)
		}
		return sys, verify
	}
}

// TestFig9ConstantQuantum is the §5 headline: with fair quanta, P-
// consensus objects (K=0) and a small constant quantum solve consensus
// for many processes per processor.
func TestFig9ConstantQuantum(t *testing.T) {
	for _, tc := range []struct{ p, v, k, n int }{
		{1, 1, 0, 4},
		{2, 1, 0, 6},
		{2, 2, 0, 8},
		{3, 2, 1, 9},
	} {
		res := check.Fuzz(fig9Builder(tc.p, tc.v, tc.k, tc.n, 8), 60, check.Options{})
		if !res.OK() {
			t.Fatalf("cfg=%+v: violation: %+v", tc, res.First())
		}
	}
}

// TestFig9LosersSeeWinnersValue checks that election losers return the
// published decision, not their own proposal, when they lose.
func TestFig9LosersSeeWinnersValue(t *testing.T) {
	res := check.Fuzz(fig9Builder(2, 1, 0, 8, 8), 100, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}
