package valency_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/unicons"
	"repro/internal/valency"
)

// fig3Scenario builds an n-process Fig. 3 consensus at quantum q.
func fig3Scenario(n, q int) valency.Scenario {
	return func(ch sim.Chooser) (*sim.System, func(error) valency.Outcome) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: q, Chooser: ch, MaxSteps: 1 << 16})
		obj := unicons.New("cons")
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) { outs[i] = obj.Decide(c, mem.Word(i+1)) })
		}
		return sys, func(runErr error) valency.Outcome {
			if runErr != nil {
				return valency.Outcome{}
			}
			for _, o := range outs {
				if o != outs[0] || o == mem.Bottom {
					return valency.Outcome{}
				}
			}
			return valency.Outcome{Decision: outs[0], Valid: true}
		}
	}
}

// TestFig3ValencyStructure reproduces the valency-argument shape for a
// CORRECT algorithm: the initial state is bivalent (either proposal can
// win), critical states exist where the decision gets locked in, every
// leaf decides, and bivalence cannot persist to the end of the tree.
func TestFig3ValencyStructure(t *testing.T) {
	res := valency.Analyze(fig3Scenario(2, unicons.MinQuantum), 100000)
	if res.Truncated {
		t.Fatal("analysis truncated")
	}
	if res.Violations != 0 {
		t.Fatalf("correct algorithm shows %d violating leaves", res.Violations)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("expected both proposals decidable, got %v", res.Decisions)
	}
	if res.Bivalent == 0 {
		t.Fatal("initial state should be bivalent")
	}
	if res.Critical == 0 {
		t.Fatal("no critical states: the decision is never locked in?")
	}
	t.Logf("Fig. 3 Q=8: %s", res)
}

// TestFig3ValencyViolationsBelowQuantum shows the dual: below the
// quantum bound the (deviation-bounded) schedule tree contains
// violating leaves — the adversary need not even keep the run bivalent,
// it can break agreement outright. The full tree at Q=1 is far too
// large, so the analysis covers the ≤3-deviation subtree, which is
// where the earlier explorer found the disagreement.
func TestFig3ValencyViolationsBelowQuantum(t *testing.T) {
	res := valency.AnalyzeBudget(fig3Scenario(3, 1), 3, 100000)
	if res.Violations == 0 {
		t.Fatalf("no violations at Q=1: %s", res)
	}
	t.Logf("Fig. 3 Q=1 (budget 3): %s", res)
}

// exhaustionScenario is the Theorem 3/Fig. 6 engine: n processes on p
// processors invoke a single C-consensus object directly and return its
// response; with n > C some leaves must return ⊥ (violations).
func exhaustionScenario(n, p, c int) valency.Scenario {
	return func(ch sim.Chooser) (*sim.System, func(error) valency.Outcome) {
		sys := sim.New(sim.Config{Processors: p, Quantum: 1, Chooser: ch, MaxSteps: 1 << 14})
		obj := mem.NewConsObject("O", c)
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: i % p, Priority: 1}).
				AddInvocation(func(cx *sim.Ctx) { outs[i] = cx.CCons(obj, mem.Word(i+1)) })
		}
		return sys, func(runErr error) valency.Outcome {
			if runErr != nil {
				return valency.Outcome{}
			}
			for _, o := range outs {
				if o != outs[0] || o == mem.Bottom {
					return valency.Outcome{}
				}
			}
			return valency.Outcome{Decision: outs[0], Valid: true}
		}
	}
}

// TestExhaustionValency reproduces the Fig. 6 situation: with more
// invokers than the consensus number, EVERY schedule ends in a
// violation (the late invoker always learns nothing), while with n ≤ C
// none does.
func TestExhaustionValency(t *testing.T) {
	bad := valency.Analyze(exhaustionScenario(3, 2, 2), 100000)
	if bad.Violations != bad.Leaves {
		t.Fatalf("n=3 > C=2: want all %d leaves violating, got %d", bad.Leaves, bad.Violations)
	}
	good := valency.Analyze(exhaustionScenario(2, 2, 2), 100000)
	if good.Violations != 0 {
		t.Fatalf("n=2 <= C=2: want no violations, got %d", good.Violations)
	}
	if len(good.Decisions) < 2 {
		t.Fatalf("n=2: both proposals should be reachable: %v", good.Decisions)
	}
	t.Logf("n>C: %s", bad)
	t.Logf("n<=C: %s", good)
}

// TestAnalyzeTruncation caps the enumeration.
func TestAnalyzeTruncation(t *testing.T) {
	res := valency.Analyze(fig3Scenario(3, unicons.MinQuantum), 10)
	if !res.Truncated || res.Leaves != 10 {
		t.Fatalf("leaves=%d truncated=%v, want 10/true", res.Leaves, res.Truncated)
	}
}

// TestResultString pins the exact summary of every configuration that
// cmd/valency and EXPERIMENTS.md's E6 report, truncated ones included,
// so a change to either enumeration or to the trie shows as a diff.
func TestResultString(t *testing.T) {
	for _, tc := range []struct {
		name       string
		scen       valency.Scenario
		budget, at int // budget 0 = full tree; at = leaf cap
		want       string
	}{
		{"fig3 n=2 q=8", fig3Scenario(2, 8), 0, 100000,
			"leaves=114 prefixes=113 bivalent=17 critical=4 maxBivalentDepth=6 violations=0 decisions=[1×57][2×57]"},
		{"fig3 n=3 q=1 budget=3", fig3Scenario(3, 1), 3, 100000,
			"leaves=4605 prefixes=27528 bivalent=109 critical=30 maxBivalentDepth=10 violations=2 decisions=[1×2853][2×841][3×909]"},
		{"exhaust n=3 p=2 c=2", exhaustionScenario(3, 2, 2), 0, 100000,
			"leaves=6 prefixes=4 bivalent=0 critical=0 maxBivalentDepth=0 violations=6 decisions="},
		{"fig3 n=3 q=8", fig3Scenario(3, 8), 0, 100000,
			"leaves=12186 prefixes=9811 bivalent=175 critical=36 maxBivalentDepth=10 violations=0 decisions=[1×4062][2×4062][3×4062]"},
		{"fig3 n=3 q=8 budget=4", fig3Scenario(3, 8), 4, 100000,
			"leaves=8756 prefixes=9811 bivalent=175 critical=36 maxBivalentDepth=10 violations=0 decisions=[1×3598][2×2579][3×2579]"},
		{"fig3 n=4 q=8 budget=3", fig3Scenario(4, 8), 3, 100000,
			"leaves=19743 prefixes=108454 bivalent=213 critical=54 maxBivalentDepth=10 violations=0 decisions=[1×13062][2×2031][3×2227][4×2423]"},
		{"fig3 n=3 q=8 max=1000", fig3Scenario(3, 8), 0, 1000,
			"leaves=1000 prefixes=836 bivalent=0 critical=0 maxBivalentDepth=0 violations=0 decisions=[1×1000] (truncated)"},
		{"fig3 n=3 q=1 budget=3 max=300", fig3Scenario(3, 1), 3, 300,
			"leaves=300 prefixes=2565 bivalent=15 critical=4 maxBivalentDepth=6 violations=0 decisions=[1×38][2×222][3×40] (truncated)"},
	} {
		var res *valency.Result
		if tc.budget > 0 {
			res = valency.AnalyzeBudget(tc.scen, tc.budget, tc.at)
		} else {
			res = valency.Analyze(tc.scen, tc.at)
		}
		if got := res.String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
