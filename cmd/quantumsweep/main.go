// Command quantumsweep regenerates the paper's Table 1 empirically
// (experiment E1): for each consensus number C = P..2P it sweeps the
// scheduling quantum under an adversarial schedule battery and reports
// the largest failing and smallest working quantum.
//
// The battery's bounded-deviation leg runs with full reduction
// (sleep sets + fingerprint pruning) by default; reductions preserve
// verdicts, so the frontier is unchanged, only faster. -no-reduction
// restores the plain enumeration for cross-checking.
//
// Usage:
//
//	quantumsweep -p 2 -m 3 -v 1 -seeds 150
//	quantumsweep -p 2 -m 3 -no-reduction   # plain enumeration cross-check
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/check"
)

func main() {
	var (
		p        = flag.Int("p", 2, "processors")
		m        = flag.Int("m", 3, "processes per processor")
		v        = flag.Int("v", 1, "priority levels")
		seeds    = flag.Int("seeds", 150, "random schedules per battery")
		grid     = flag.String("grid", "", "comma-separated quantum grid (default built-in)")
		parallel = flag.Int("parallel", 0, "workers per schedule battery (0 = all CPUs, 1 = sequential)")
		noRed    = flag.Bool("no-reduction", false, "disable exploration reductions in the deviation battery leg (slower, same verdicts)")
	)
	flag.Parse()

	qGrid, err := parseGrid(*grid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantumsweep: %v\n", err)
		os.Exit(2)
	}
	red := check.ReductionFull
	if *noRed {
		red = check.ReductionNone
	}
	rows := bench.Table1SweepRed(*p, *m, *v, *seeds, qGrid, *parallel, red)
	fmt.Print(bench.RenderTable1(*p, *m, *v, rows))
}

// parseGrid parses -grid, a comma-separated list of quanta; "" selects
// the built-in grid (nil). A quantum must be an integer of at least 0.
func parseGrid(grid string) ([]int, error) {
	if grid == "" {
		return nil, nil
	}
	var qs []int
	for _, s := range strings.Split(grid, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad -grid entry %q: %v", s, err)
		}
		if q < 0 {
			return nil, fmt.Errorf("bad -grid entry %q: negative quantum", s)
		}
		qs = append(qs, q)
	}
	return qs, nil
}
