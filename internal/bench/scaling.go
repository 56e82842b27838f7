package bench

import (
	"fmt"

	"repro/internal/hybridcas"
	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// Fig3Scaling measures Theorem 1's constant-time claim: worst-case
// statements per consensus operation as the number of processes grows
// (E3). The paper predicts a flat series at exactly 8.
func Fig3Scaling(ns []int, seed int64) []ScalingPoint {
	pts := make([]ScalingPoint, 0, len(ns))
	for _, n := range ns {
		sys := sim.New(sim.Config{Processors: 1, Quantum: unicons.MinQuantum, Chooser: sched.NewRandom(seed)})
		obj := unicons.New("cons")
		for i := 0; i < n; i++ {
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%4}).
				AddInvocation(func(c *sim.Ctx) { obj.Decide(c, 1) })
		}
		if err := sys.Run(); err != nil {
			panic(fmt.Sprintf("bench: Fig3Scaling n=%d: %v", n, err))
		}
		pts = append(pts, ScalingPoint{X: n, Stmts: worstInv(sys)})
		sys.Close()
	}
	return pts
}

// Fig5Scaling measures Theorem 2's O(V) claim: worst-case statements per
// C&S operation as the number of priority levels grows, with the process
// count fixed (E4).
func Fig5Scaling(vs []int, n, opsPer int, seed int64) []ScalingPoint {
	pts := make([]ScalingPoint, 0, len(vs))
	for _, v := range vs {
		sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: sched.NewRandom(seed)})
		obj := hybridcas.New("cas", v, 0)
		for i := 0; i < n; i++ {
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v})
			for k := 0; k < opsPer; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					for {
						x := obj.Read(c)
						if obj.CompareAndSwap(c, x, x+1) {
							return
						}
					}
				})
			}
		}
		if err := sys.Run(); err != nil {
			panic(fmt.Sprintf("bench: Fig5Scaling v=%d: %v", v, err))
		}
		pts = append(pts, ScalingPoint{X: v, Stmts: worstInv(sys)})
		sys.Close()
	}
	return pts
}

// Fig5ScalingN measures the complementary E4 axis: worst-case statements
// per C&S operation as the process count grows with V fixed. Theorem 2
// predicts no dependence on N (up to contention-driven retries).
func Fig5ScalingN(ns []int, v, opsPer int, seed int64) []ScalingPoint {
	pts := make([]ScalingPoint, 0, len(ns))
	for _, n := range ns {
		sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: sched.NewRandom(seed)})
		obj := hybridcas.New("cas", v, 0)
		for i := 0; i < n; i++ {
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v})
			for k := 0; k < opsPer; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					for {
						x := obj.Read(c)
						if obj.CompareAndSwap(c, x, x+1) {
							return
						}
					}
				})
			}
		}
		if err := sys.Run(); err != nil {
			panic(fmt.Sprintf("bench: Fig5ScalingN n=%d: %v", n, err))
		}
		pts = append(pts, ScalingPoint{X: n, Stmts: worstInv(sys)})
		sys.Close()
	}
	return pts
}

// Fig7Scaling measures Theorem 4's polynomial-time claim: worst-case
// statements per multiprocessor consensus as M (processes per processor)
// grows (E5). L grows linearly in M, so the series should be roughly
// linear — polynomial, not exponential.
func Fig7Scaling(ms []int, p, k, v, quantum int, seed int64) []ScalingPoint {
	pts := make([]ScalingPoint, 0, len(ms))
	for _, m := range ms {
		cfg := multicons.Config{Name: "f7", P: p, K: k, M: m, V: v}
		sys := sim.New(sim.Config{Processors: p, Quantum: quantum, Chooser: sched.NewRandom(seed), MaxSteps: 1 << 24})
		alg := multicons.New(cfg)
		for i := 0; i < p; i++ {
			for j := 0; j < m; j++ {
				me := i*m + j
				sys.AddProcess(sim.ProcSpec{Processor: i, Priority: 1 + j%v}).
					AddInvocation(func(c *sim.Ctx) { alg.Decide(c, mem.Word(me+1)) })
			}
		}
		if err := sys.Run(); err != nil {
			panic(fmt.Sprintf("bench: Fig7Scaling m=%d: %v", m, err))
		}
		pts = append(pts, ScalingPoint{X: m, Stmts: worstInv(sys)})
		sys.Close()
	}
	return pts
}

// ExpBaselineCurve renders the E8 contrast: the measured polynomial cost
// of the paper's algorithm (Fig. 7 level count and statements) against
// the exponential 2^V cost shape of the prior priority-based
// construction [7], whose full algorithm text is not available (see
// DESIGN.md).
func ExpBaselineCurve(vs []int, p, k, m int) string {
	out := fmt.Sprintf("E8: polynomial (this paper) vs exponential ([7]-shape) cost, P=%d K=%d M=%d\n", p, k, m)
	out += fmt.Sprintf("%4s %22s %22s\n", "V", "Fig7 levels (poly)", "[7] objects (2^V)")
	for _, v := range vs {
		cfg := multicons.Config{P: p, K: k, M: m, V: v}
		out += fmt.Sprintf("%4d %22d %22d\n", v, cfg.Levels(), 1<<v)
	}
	return out
}

func worstInv(sys *sim.System) int64 {
	var worst int64
	for _, p := range sys.Processes() {
		if p.MaxInvStmts() > worst {
			worst = p.MaxInvStmts()
		}
	}
	return worst
}
