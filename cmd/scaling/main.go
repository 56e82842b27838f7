// Command scaling regenerates the paper's complexity-claim experiments
// as data series (DESIGN.md index E3, E4, E5, E8):
//
//	E3  Fig. 3 / Theorem 1 — constant stmts/op vs process count
//	E4  Fig. 5 / Theorem 2 — O(V) stmts/op vs priority levels (and
//	    independence from N)
//	E5  Fig. 7 / Theorem 4 — polynomial stmts/op vs processes/processor
//	E8  §1 complexity contrast — polynomial level count vs the 2^V
//	    shape of the prior priority-based construction [7]
//
// Usage:
//
//	scaling              # all series
//	scaling -exp e4      # one series
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: e3|e4|e5|e8|all")
	seed := flag.Int64("seed", 1, "scheduler seed")
	flag.Parse()
	if err := checkExp(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(2)
	}

	if *exp == "e3" || *exp == "all" {
		pts := bench.Fig3Scaling([]int{1, 2, 4, 8, 16, 32, 64, 128}, *seed)
		fmt.Print(bench.RenderScaling(
			"E3: Fig. 3 consensus — stmts/op vs N (paper: constant, exactly 8)", "N", pts))
		fmt.Println()
	}
	if *exp == "e4" || *exp == "all" {
		pts := bench.Fig5Scaling([]int{1, 2, 4, 8, 16, 32}, 4, 2, *seed)
		fmt.Print(bench.RenderScaling(
			"E4: Fig. 5 C&S — stmts/op vs V (paper: O(V)), N=4 fixed", "V", pts))
		fmt.Println()
		pts = bench.Fig5ScalingN([]int{2, 4, 8, 16}, 4, 2, *seed)
		fmt.Print(bench.RenderScaling(
			"E4b: Fig. 5 C&S — stmts/op vs N (paper: independent of N), V=4 fixed", "N", pts))
		fmt.Println()
	}
	if *exp == "e5" || *exp == "all" {
		pts := bench.Fig7Scaling([]int{1, 2, 3, 4, 6}, 2, 1, 1, 2048, *seed)
		fmt.Print(bench.RenderScaling(
			"E5: Fig. 7 consensus — stmts/op vs M (paper: polynomial; L linear in M), P=2 C=3", "M", pts))
		fmt.Println()
	}
	if *exp == "e8" || *exp == "all" {
		fmt.Print(bench.ExpBaselineCurve([]int{1, 2, 4, 8, 12, 16}, 2, 1, 2))
	}
}

// checkExp rejects an -exp that names no series.
func checkExp(exp string) error {
	switch exp {
	case "e3", "e4", "e5", "e8", "all":
		return nil
	}
	return fmt.Errorf("unknown -exp %q (want e3, e4, e5, e8 or all)", exp)
}
