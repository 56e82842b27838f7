package multicons_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runInstrumented runs one Fig. 7 consensus and returns the instance
// for lemma inspection.
func runInstrumented(t *testing.T, cfg multicons.Config, quantum int, ch sim.Chooser) *multicons.Algorithm {
	t.Helper()
	sys := sim.New(sim.Config{Processors: cfg.P, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 23})
	alg := multicons.New(cfg)
	outs := make([]mem.Word, cfg.P*cfg.M)
	id := 0
	for i := 0; i < cfg.P; i++ {
		for j := 0; j < cfg.M; j++ {
			me := id
			sys.AddProcess(sim.ProcSpec{Processor: i, Priority: 1 + j%cfg.V}).
				AddInvocation(func(c *sim.Ctx) { outs[me] = alg.Decide(c, mem.Word(me+1)) })
			id++
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, o := range outs {
		if o != outs[0] || o == mem.Bottom {
			t.Fatalf("disagreement at %d: %v", i, outs)
		}
	}
	return alg
}

// TestLemma3DecidingLevelExists reproduces Appendix B's conclusion: with
// the formula's L and an adequate quantum, every adversarial run has a
// level at which all processors published — the deciding-level witness.
func TestLemma3DecidingLevelExists(t *testing.T) {
	for _, cfg := range []multicons.Config{
		{Name: "lm", P: 2, K: 0, M: 2, V: 1},
		{Name: "lm", P: 2, K: 1, M: 2, V: 2},
		{Name: "lm", P: 3, K: 1, M: 2, V: 2},
	} {
		for seed := int64(0); seed < 25; seed++ {
			alg := runInstrumented(t, cfg, 4096, sched.NewUniform(seed))
			if dl := alg.DecidingLevel(); dl == 0 {
				t.Fatalf("cfg=%+v seed=%d: no deciding-level witness; report=%+v",
					cfg, seed, alg.Report())
			}
		}
		alg := runInstrumented(t, cfg, 4096, sched.NewRotate())
		if alg.DecidingLevel() == 0 {
			t.Fatalf("cfg=%+v rotate: no deciding-level witness", cfg)
		}
	}
}

// TestLemma3AccessFailureBudget checks the empirical (terminal) access
// failures never exceed the Lemma 2+3 budget, even under the
// maximally-preempting adversary at a quantum near the frontier.
func TestLemma3AccessFailureBudget(t *testing.T) {
	for _, cfg := range []multicons.Config{
		{Name: "lm", P: 2, K: 0, M: 3, V: 1},
		{Name: "lm", P: 2, K: 2, M: 3, V: 1},
		{Name: "lm", P: 3, K: 1, M: 2, V: 2},
	} {
		budget := 0
		for seed := int64(0); seed < 25; seed++ {
			sys := sim.New(sim.Config{Processors: cfg.P, Quantum: 64,
				Chooser: sched.NewUniform(seed), MaxSteps: 1 << 23})
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
			if err := sys.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if af := alg.TerminalAccessFailures(); af > alg.AccessFailureBudget() {
				t.Fatalf("cfg=%+v seed=%d: terminal access failures %d exceed Lemma budget %d",
					cfg, seed, af, alg.AccessFailureBudget())
			} else if af > budget {
				budget = af
			}
		}
		t.Logf("cfg P=%d K=%d M=%d: worst terminal AF %d within budget %d (L=%d)",
			cfg.P, cfg.K, cfg.M, budget,
			multicons.New(cfg).AccessFailureBudget(), cfg.Levels())
	}
}

// TestLemmaPortClaimsBounded checks port claims per processor stay
// within the paper's 2L+M overshoot bound.
func TestLemmaPortClaimsBounded(t *testing.T) {
	cfg := multicons.Config{Name: "lm", P: 2, K: 1, M: 3, V: 2}
	alg := runInstrumented(t, cfg, 2048, sched.NewUniform(5))
	total := 0
	for _, r := range alg.Report() {
		for i, n := range r.Claims {
			total += n
			// Per level per processor: at most numports claims can win
			// elections, but transient double-claims across priorities
			// are bounded by M.
			if n > 2+cfg.M {
				t.Fatalf("level %d processor %d claimed %d ports", r.Level, i, n)
			}
		}
		if r.Invocations > cfg.C() {
			t.Fatalf("level %d invoked %d > C=%d", r.Level, r.Invocations, cfg.C())
		}
	}
	if total == 0 {
		t.Fatal("no port claims recorded")
	}
}

// TestReportShape sanity-checks the report structure.
func TestReportShape(t *testing.T) {
	cfg := multicons.Config{Name: "lm", P: 2, K: 0, M: 1, V: 1}
	alg := runInstrumented(t, cfg, 4096, sim.FirstChooser{})
	rep := alg.Report()
	if len(rep) != alg.L() {
		t.Fatalf("report has %d levels, want %d", len(rep), alg.L())
	}
	if rep[0].Level != 1 || rep[len(rep)-1].Level != alg.L() {
		t.Fatalf("level numbering off: %d..%d", rep[0].Level, rep[len(rep)-1].Level)
	}
}
