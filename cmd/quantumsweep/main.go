// Command quantumsweep regenerates the paper's Table 1 empirically
// (experiment E1): for each consensus number C = P..2P it sweeps the
// scheduling quantum under an adversarial schedule battery and reports
// the largest failing and smallest working quantum.
//
// Each point's battery builds the Fig. 7 system through the workload
// registry (the multicons workload). Its bounded-deviation leg runs
// with full reduction (sleep sets + fingerprint pruning); reductions
// preserve verdicts, so the frontier is the plain enumeration's, only
// faster (the check package's reduced-vs-plain cross-check pins this).
// -p, -m or -v below 1, or a bad -grid entry, is rejected with exit
// status 2.
//
// Usage:
//
//	quantumsweep -p 2 -m 3 -v 1 -seeds 150
//	quantumsweep -p 2 -m 2 -grid 1,8,64 -parallel 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		p        = flag.Int("p", 2, "processors")
		m        = flag.Int("m", 3, "processes per processor")
		v        = flag.Int("v", 1, "priority levels")
		seeds    = flag.Int("seeds", 150, "random schedules per battery")
		grid     = flag.String("grid", "", "comma-separated quantum grid (default built-in)")
		parallel = flag.Int("parallel", 0, "workers per schedule battery (0 = all CPUs, 1 = sequential)")
	)
	flag.Parse()

	qGrid, err := parseGrid(*grid)
	if err == nil {
		err = checkSizes(*p, *m, *v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantumsweep: %v\n", err)
		os.Exit(2)
	}
	rows := bench.Table1Sweep(*p, *m, *v, *seeds, qGrid, *parallel)
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

// checkSizes rejects a processor, process or priority-level count
// below 1: the sweep has no Fig. 7 system to build for it.
func checkSizes(p, m, v int) error {
	for _, f := range []struct {
		name string
		val  int
	}{{"p", p}, {"m", m}, {"v", v}} {
		if f.val < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.val)
		}
	}
	return nil
}
