// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation-bearing content as machine-run
// experiments (see DESIGN.md's per-experiment index E1-E8) and renders
// paper-style text tables. The testing.B benchmarks in the repository
// root and the cmd/ binaries are thin drivers over this package.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fig7Builder builds the sweep's Fig. 7 runs through the workload
// registry's multicons workload, whose reset hooks let the explorers
// pool one system per worker.
func fig7Builder(p, k, m, v, q int) check.Builder {
	build, err := check.BuilderFor(artifact.Meta{Workload: "multicons", P: p, K: k, M: m, V: v, Quantum: q, MaxSteps: 1 << 23})
	if err != nil {
		panic(err) // unreachable: multicons is registered
	}
	return build
}

// budgetLegSchedules caps the bounded-deviation leg of the quantum
// battery so large configurations stay a battery, not a proof.
const budgetLegSchedules = 128

// quantumHolds reports whether the Fig. 7 configuration passes a battery
// of adversarial schedules at quantum q: the maximally-preempting Rotate
// schedule, quantum-stagger adversaries at several alignment phases (the
// Theorem 3 construction), `seeds` pseudo-random schedules, and a
// bounded exhaustive leg over every single-switch deviation from the
// default schedule. The deterministic battery fans out over parallelism
// workers (0 = NumCPU); the fuzz and deviation legs run on the parallel
// explorer with the same worker budget, the deviation leg with full
// reduction.
func quantumHolds(build check.Builder, q, seeds, parallelism int) bool {
	adversaries := []sim.Chooser{sched.NewRotate()}
	for phase := 0; phase < min(q, 8); phase++ {
		adversaries = append(adversaries, sched.NewStagger(q, phase))
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var failed atomic.Bool
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, adv := range adversaries {
		if failed.Load() {
			break
		}
		adv := adv
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if failed.Load() {
				return
			}
			sys, verify := build(adv)
			defer sys.Close()
			if verify(sys.Run()) != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return false
	}
	res := check.Fuzz(build, seeds, check.Options{StopAtFirst: true, Parallelism: parallelism})
	if !res.OK() {
		return false
	}
	bres := check.ExploreBudget(build, 1, check.Options{
		StopAtFirst:  true,
		Parallelism:  parallelism,
		MaxSchedules: budgetLegSchedules,
		Reduction:    check.ReductionFull,
	})
	return bres.OK()
}

// Table1Row is one row of the reproduced Table 1: for consensus number
// C = P + K, the smallest quantum that passed the adversarial battery
// and the largest quantum that failed it.
type Table1Row struct {
	C           int
	K           int
	MinWorkingQ int // 0 = no grid point passed
	MaxFailingQ int // 0 = no grid point failed
	PaperFactor int // the paper's bound shape: 2P+1-C (clamped at 2)
}

// DefaultQGrid is the quantum grid used by the Table 1 sweep.
func DefaultQGrid() []int {
	return []int{1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048}
}

// Table1Sweep reproduces Table 1 for a P-processor system with M
// processes per processor over V priority levels: for each C in
// [P, 2P+1] it sweeps the quantum grid under adversarial schedules and
// records the empirical universality frontier. Each point's schedule
// battery runs on parallelism workers (0 = runtime.NumCPU(), 1 =
// sequential); its bounded-deviation leg runs with full reduction,
// which preserves verdicts, so the frontier does not depend on it.
// P, M and V must be at least 1: the multicons workload would run its
// default sizes in their place, under a table labelled with the sizes
// given.
func Table1Sweep(p, m, v, seeds int, qGrid []int, parallelism int) []Table1Row {
	if p < 1 || m < 1 || v < 1 {
		panic(fmt.Sprintf("bench: Table1Sweep needs P, M, V >= 1, got %d, %d, %d", p, m, v))
	}
	if qGrid == nil {
		qGrid = DefaultQGrid()
	}
	var rows []Table1Row
	for k := 0; k <= p; k++ {
		row := Table1Row{C: p + k, K: k, PaperFactor: max(2, 2*p+1-(p+k))}
		for _, q := range qGrid {
			if quantumHolds(fig7Builder(p, k, m, v, q), q, seeds, parallelism) {
				if row.MinWorkingQ == 0 {
					row.MinWorkingQ = q
				}
			} else {
				row.MaxFailingQ = q
				row.MinWorkingQ = 0 // require all larger grid points to pass
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable1 renders the sweep next to the paper's bound shape.
func RenderTable1(p, m, v int, rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 reproduction: P=%d processors, M=%d processes/processor, V=%d levels\n", p, m, v)
	fmt.Fprintf(&b, "paper: universal iff Q >= c(2P+1-C) for P<=C<=2P, Q >= c*2 for C>=2P (Tmax=Tmin=1)\n\n")
	fmt.Fprintf(&b, "%4s %4s %18s %14s %14s\n", "C", "K", "paper Q-factor", "max failing Q", "min working Q")
	for _, r := range rows {
		fail := "-"
		if r.MaxFailingQ > 0 {
			fail = fmt.Sprintf("%d", r.MaxFailingQ)
		}
		work := "-"
		if r.MinWorkingQ > 0 {
			work = fmt.Sprintf("%d", r.MinWorkingQ)
		}
		fmt.Fprintf(&b, "%4d %4d %18s %14s %14s\n",
			r.C, r.K, fmt.Sprintf("(2P+1-C)=%d", r.PaperFactor), fail, work)
	}
	return b.String()
}

// ScalingPoint is one measurement of a scaling experiment: worst-case
// statements per operation at parameter X.
type ScalingPoint struct {
	X     int
	Stmts int64
}

// RenderScaling renders a scaling series.
func RenderScaling(title, xlabel string, pts []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%8s %16s\n", title, xlabel, "stmts/op (max)")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%8d %16d\n", pt.X, pt.Stmts)
	}
	return b.String()
}
