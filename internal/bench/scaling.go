package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hybridcas"
	"repro/internal/multicons"
	"repro/internal/unicons"
)

// series runs one internal/core scenario per x under the seeded uniform
// scheduler and collects its worst-case statements per operation.
func series(name string, xs []int, seed int64, run func(x int, spec string) (int64, error)) []ScalingPoint {
	spec := fmt.Sprintf("uniform:seed=%d", seed)
	pts := make([]ScalingPoint, 0, len(xs))
	for _, x := range xs {
		stmts, err := run(x, spec)
		if err != nil {
			panic(fmt.Sprintf("bench: %s x=%d: %v", name, x, err))
		}
		pts = append(pts, ScalingPoint{X: x, Stmts: stmts})
	}
	return pts
}

// Fig3Scaling measures Theorem 1's constant-time claim: worst-case
// statements per consensus operation as the number of processes grows
// (E3). The paper predicts a flat series at exactly 8.
func Fig3Scaling(ns []int, seed int64) []ScalingPoint {
	return series("Fig3Scaling", ns, seed, func(n int, spec string) (int64, error) {
		res, err := core.RunUniConsensus(core.UniConsensusOpts{N: n, V: 4, Quantum: unicons.MinQuantum, Scheduler: spec})
		if err != nil {
			return 0, err
		}
		return res.WorstOpStmts, nil
	})
}

// casStmts runs the Fig. 5 counter workload and returns its worst-case
// statements per C&S operation.
func casStmts(n, v, opsPer int, spec string) (int64, error) {
	res, err := core.RunCASWorkload(core.CASWorkloadOpts{N: n, V: v, OpsPer: opsPer, Quantum: hybridcas.RecommendedQuantum, Scheduler: spec})
	if err != nil {
		return 0, err
	}
	return res.WorstOpStmts, nil
}

// Fig5Scaling measures Theorem 2's O(V) claim: worst-case statements per
// C&S operation as the number of priority levels grows, with the process
// count fixed (E4).
func Fig5Scaling(vs []int, n, opsPer int, seed int64) []ScalingPoint {
	return series("Fig5Scaling", vs, seed, func(v int, spec string) (int64, error) {
		return casStmts(n, v, opsPer, spec)
	})
}

// Fig5ScalingN measures the complementary E4 axis: worst-case statements
// per C&S operation as the process count grows with V fixed. Theorem 2
// predicts no dependence on N (up to contention-driven retries).
func Fig5ScalingN(ns []int, v, opsPer int, seed int64) []ScalingPoint {
	return series("Fig5ScalingN", ns, seed, func(n int, spec string) (int64, error) {
		return casStmts(n, v, opsPer, spec)
	})
}

// Fig7Scaling measures Theorem 4's polynomial-time claim: worst-case
// statements per multiprocessor consensus as M (processes per processor)
// grows (E5). L grows linearly in M, so the series should be roughly
// linear — polynomial, not exponential.
func Fig7Scaling(ms []int, p, k, v, quantum int, seed int64) []ScalingPoint {
	return series("Fig7Scaling", ms, seed, func(m int, spec string) (int64, error) {
		res, err := core.RunMultiConsensus(core.MultiConsensusOpts{P: p, K: k, M: m, V: v, Quantum: quantum, Scheduler: spec})
		if err != nil {
			return 0, err
		}
		return res.WorstOpStmts, nil
	})
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
