// Command valency runs the Appendix-A-style valency analysis over the
// schedule tree of a small consensus scenario, reporting bivalent and
// critical states, reachable decisions, and violations (experiment E6).
//
// Usage:
//
//	valency -alg fig3 -n 2 -q 8            # correct: critical states, no violations
//	valency -alg fig3 -n 3 -q 1 -budget 3  # below the bound: violations appear
//	valency -alg exhaust -n 3 -p 2 -c 2    # Fig. 6: every schedule violates
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/unicons"
	"repro/internal/valency"
)

func main() {
	var (
		alg    = flag.String("alg", "fig3", "scenario: fig3|exhaust")
		n      = flag.Int("n", 2, "processes")
		p      = flag.Int("p", 2, "processors (exhaust)")
		c      = flag.Int("c", 2, "consensus number (exhaust)")
		q      = flag.Int("q", 8, "scheduling quantum (fig3)")
		budget = flag.Int("budget", 0, "deviation budget (0 = full tree)")
		max    = flag.Int("max", 100000, "leaf cap")
	)
	flag.Parse()
	if err := checkFlags(*alg, *n, *p, *c, *q); err != nil {
		fmt.Fprintln(os.Stderr, "valency:", err)
		os.Exit(2)
	}

	var scen valency.Scenario
	if *alg == "fig3" {
		scen = fig3Scenario(*n, *q)
	} else {
		scen = exhaustScenario(*n, *p, *c)
	}

	var res *valency.Result
	if *budget > 0 {
		res = valency.AnalyzeBudget(scen, *budget, *max)
	} else {
		res = valency.Analyze(scen, *max)
	}
	fmt.Println(res)
	switch {
	case res.Violations > 0:
		fmt.Println("violating schedules exist: the adversary defeats this configuration")
	case res.Critical > 0:
		fmt.Println("no violations; every run leaves bivalence through a critical state (wait-free decision)")
	}
}

// checkFlags rejects an unknown -alg and the flags of alg that no
// scenario can be built from: a count below 1 or a negative quantum.
// Flags alg does not read are not checked.
func checkFlags(alg string, n, p, c, q int) error {
	type bound struct {
		name     string
		val, min int
	}
	var bounds []bound
	switch alg {
	case "fig3":
		bounds = []bound{{"n", n, 1}, {"q", q, 0}}
	case "exhaust":
		bounds = []bound{{"n", n, 1}, {"p", p, 1}, {"c", c, 1}}
	default:
		return fmt.Errorf("unknown -alg %q", alg)
	}
	for _, b := range bounds {
		if b.val < b.min {
			return fmt.Errorf("-%s must be at least %d, got %d", b.name, b.min, b.val)
		}
	}
	return nil
}

func fig3Scenario(n, q int) valency.Scenario {
	return func(ch sim.Chooser) (*sim.System, func(error) valency.Outcome) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: q, Chooser: ch, MaxSteps: 1 << 16})
		obj := unicons.New("cons")
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(cx *sim.Ctx) { outs[i] = obj.Decide(cx, mem.Word(i+1)) })
		}
		return sys, agreementOutcome(outs)
	}
}

func exhaustScenario(n, p, c int) valency.Scenario {
	return func(ch sim.Chooser) (*sim.System, func(error) valency.Outcome) {
		sys := sim.New(sim.Config{Processors: p, Quantum: 1, Chooser: ch, MaxSteps: 1 << 14})
		obj := mem.NewConsObject("O", c)
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: i % p, Priority: 1}).
				AddInvocation(func(cx *sim.Ctx) { outs[i] = cx.CCons(obj, mem.Word(i+1)) })
		}
		return sys, agreementOutcome(outs)
	}
}

func agreementOutcome(outs []mem.Word) func(error) valency.Outcome {
	return func(runErr error) valency.Outcome {
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
