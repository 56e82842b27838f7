// Command tracer regenerates the paper's Fig. 1 and Fig. 2: the
// interleavings of three processes accessing a common object on one
// processor under (a) quantum-based and (b) priority-based scheduling
// (experiment E2).
//
// Usage:
//
//	tracer            # both figures, to stdout
//	tracer -fig 1a    # quantum-based interleaving only
//	tracer -fig 1b    # priority-based interleaving only
//	tracer -o fig.txt # write the rendered timelines to a file
//
// With -o the rendered output goes to the named file instead of stdout,
// so tracer output composes with repro artifacts in the same directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

func main() {
	fig := flag.String("fig", "both", "which figure: 1a|1b|both")
	q := flag.Int("q", 8, "scheduling quantum for the quantum-based figure")
	outPath := flag.String("o", "", "write the rendered timelines to this file instead of stdout")
	flag.Parse()
	if err := checkFlags(*fig, *q); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracer:", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tracer:", err)
				os.Exit(1)
			}
		}()
		out = f
	}

	if *fig == "1a" || *fig == "both" {
		// Fig. 1(a)/Fig. 2: three equal-priority processes, quantum
		// scheduling; the rotate schedule gives exactly the staggered
		// pattern of Fig. 2, with quantum boundaries visible as bursts.
		res, err := core.RunUniConsensus(core.UniConsensusOpts{
			N: 3, V: 1, Quantum: *q, Scheduler: "rotate", Trace: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracer:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "Fig. 1(a)/Fig. 2 — quantum-based interleaving (Q=%d):\n", *q)
		fmt.Fprintln(out, "legend: [ invocation start  ] end  ! resumes after preemption")
		fmt.Fprintln(out, "        R read  W write  L local statement")
		fmt.Fprint(out, res.Trace)
		fmt.Fprintf(out, "decisions=%v preemptions=%d\n\n", res.Decisions, res.Preemptions)
	}
	if *fig == "1b" || *fig == "both" {
		// Fig. 1(b): three processes at distinct priorities; preemptors
		// run to completion before the preempted process resumes.
		res, err := core.RunUniConsensus(core.UniConsensusOpts{
			N: 3, V: 3, Quantum: *q, Scheduler: "rotate", Trace: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracer:", err)
			os.Exit(1)
		}
		fmt.Fprintln(out, "Fig. 1(b) — priority-based interleaving (p lowest, r highest):")
		fmt.Fprint(out, res.Trace)
		fmt.Fprintf(out, "decisions=%v\n", res.Decisions)
	}
}

// checkFlags rejects a -fig that names no figure and a negative
// quantum, which no system can be built with.
func checkFlags(fig string, q int) error {
	switch fig {
	case "1a", "1b", "both":
	default:
		return fmt.Errorf("unknown -fig %q (want 1a, 1b or both)", fig)
	}
	if q < 0 {
		return fmt.Errorf("-q must be at least 0, got %d", q)
	}
	return nil
}
