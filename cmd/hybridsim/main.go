// Command hybridsim runs the paper's algorithms on the simulated
// hybrid-scheduled system from command-line flags.
//
// -sched takes a scheduler model spec, the grammar of checker
// -sched-model (sched.ParseModelSpec): rtc, rotate, script (candidate
// 0 at every decision), uniform:seed=<n>, stagger:period=<n>,phase=<n>,
// or any other registered model. A count below 1 (-n, -p, -m, -v,
// -ops), a negative -q, or a -k outside [0, -p], among the flags the
// chosen algorithm reads, is rejected with exit status 2.
//
// Usage:
//
//	hybridsim -alg fig3 -n 8 -v 3 -q 8 -sched uniform:seed=7
//	hybridsim -alg fig5 -n 6 -v 4 -ops 3 -q 32 -sched rotate
//	hybridsim -alg fig7 -p 3 -k 1 -m 2 -v 2 -q 2048 -sched uniform:seed=1
//	hybridsim -alg fig7 -p 2 -k 1 -m 2 -q 2048 -sched stagger:period=8,phase=2
//	hybridsim -alg fig9 -p 2 -k 0 -m 4 -v 2 -q 8 -sched rotate
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		alg      = flag.String("alg", "fig3", "algorithm: fig3|fig5|fig7|fig9")
		n        = flag.Int("n", 4, "processes (fig3/fig5)")
		p        = flag.Int("p", 2, "processors (fig7/fig9)")
		k        = flag.Int("k", 0, "consensus-number surplus K, C=P+K (fig7/fig9)")
		m        = flag.Int("m", 2, "processes per processor (fig7/fig9)")
		v        = flag.Int("v", 1, "priority levels")
		ops      = flag.Int("ops", 2, "operations per process (fig5)")
		q        = flag.Int("q", 8, "scheduling quantum (statements)")
		schedStr = flag.String("sched", "uniform:seed=1", "scheduler model spec: rtc|rotate|script|uniform:seed=<n>|stagger:period=<n>,phase=<n>|...")
		showTr   = flag.Bool("trace", false, "render the interleaving timeline")
	)
	flag.Parse()
	if err := checkSizes(*alg, *n, *p, *k, *m, *v, *ops, *q); err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		os.Exit(2)
	}

	switch *alg {
	case "fig3":
		res, err := core.RunUniConsensus(core.UniConsensusOpts{
			N: *n, V: *v, Quantum: *q, Scheduler: *schedStr, Trace: *showTr,
		})
		if err != nil {
			return err
		}
		fmt.Printf("fig3 consensus: N=%d V=%d Q=%d sched=%s\n", *n, *v, *q, *schedStr)
		fmt.Printf("decisions: %v  agreed=%v\n", res.Decisions, res.Agreed)
		fmt.Printf("steps=%d worst-op=%d stmts, preemptions=%d\n", res.Steps, res.WorstOpStmts, res.Preemptions)
		if *showTr {
			fmt.Print(res.Trace)
		}
	case "fig5":
		res, err := core.RunCASWorkload(core.CASWorkloadOpts{
			N: *n, V: *v, OpsPer: *ops, Quantum: *q, Scheduler: *schedStr,
		})
		if err != nil {
			return err
		}
		fmt.Printf("fig5 C&S counter: N=%d V=%d ops=%d Q=%d sched=%s\n", *n, *v, *ops, *q, *schedStr)
		fmt.Printf("final=%d want=%d steps=%d worst-op=%d stmts, max head walk=%d\n",
			res.Final, res.Want, res.Steps, res.WorstOpStmts, res.MaxWalk)
		if res.Final != res.Want {
			return fmt.Errorf("counter mismatch: %d != %d", res.Final, res.Want)
		}
	case "fig7", "fig9":
		res, err := core.RunMultiConsensus(core.MultiConsensusOpts{
			P: *p, K: *k, M: *m, V: *v, Quantum: *q,
			Scheduler: *schedStr, Fair: *alg == "fig9", Trace: *showTr,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s consensus: P=%d C=%d M=%d V=%d Q=%d sched=%s\n",
			*alg, *p, *p+*k, *m, *v, *q, *schedStr)
		fmt.Printf("decisions: %v  agreed=%v\n", res.Decisions, res.Agreed)
		fmt.Printf("steps=%d worst-op=%d stmts, preemptions=%d\n", res.Steps, res.WorstOpStmts, res.Preemptions)
		if *showTr {
			fmt.Print(res.Trace)
		}
	default:
		return fmt.Errorf("unknown -alg %q", *alg)
	}
	return nil
}

// checkSizes rejects the flags of alg that no system can be built
// from: a count below 1, a negative quantum, or a surplus K outside
// [0, P]. Flags alg does not read are not checked.
func checkSizes(alg string, n, p, k, m, v, ops, q int) error {
	type bound struct {
		name     string
		val, min int
	}
	bounds := []bound{{"v", v, 1}, {"q", q, 0}}
	switch alg {
	case "fig3":
		bounds = append(bounds, bound{"n", n, 1})
	case "fig5":
		bounds = append(bounds, bound{"n", n, 1}, bound{"ops", ops, 1})
	case "fig7", "fig9":
		bounds = append(bounds, bound{"p", p, 1}, bound{"m", m, 1}, bound{"k", k, 0})
	}
	for _, b := range bounds {
		if b.val < b.min {
			return fmt.Errorf("-%s must be at least %d, got %d", b.name, b.min, b.val)
		}
	}
	if (alg == "fig7" || alg == "fig9") && k > p {
		return fmt.Errorf("-k must be at most -p (%d), got %d", p, k)
	}
	return nil
}
