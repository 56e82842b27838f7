package artifact_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/artifact"
)

// TestDeclaredBoundsReconcile closes the loop between the paper's
// theorems, the registry's declared wait-freedom budgets, and the
// source code: reprolint's waitfreebound analyzer re-derives each
// operation's worst-case statement count from the implementation, and
// this test proves derived ≤ declared under every registered
// workload's parameters — with unicons.Decide landing on Theorem 1's
// constant exactly, and the blocking negative control staying
// unbounded.
func TestDeclaredBoundsReconcile(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.RunDriver(analysis.DriverOptions{
		Root:  root,
		Cache: false,
		Patterns: []string{
			"./internal/unicons", "./internal/multicons", "./internal/hybridcas",
			"./internal/universal", "./internal/qlocal", "./internal/renaming",
			"./internal/baseline", "./internal/core",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]*analysis.OpBound{}
	for i := range res.Bounds.Ops {
		op := &res.Bounds.Ops[i]
		ops[op.Func] = op
	}
	get := func(name string) *analysis.OpBound {
		t.Helper()
		op := ops[name]
		if op == nil {
			t.Fatalf("bounds report is missing %s", name)
		}
		return op
	}

	// Theorem 1: the Fig. 3 implementation decides in exactly 8
	// statements, and the registry declares exactly that.
	unicons := artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8}
	decide := get("(*repro/internal/unicons.Object).Decide")
	if decide.Bound != "8" || len(decide.Incomplete) != 0 {
		t.Errorf("unicons.Decide derived %q (incomplete %v), want exactly 8", decide.Bound, decide.Incomplete)
	}
	if d := artifact.DeclaredBound(unicons); d != 8 {
		t.Errorf("DeclaredBound(unicons) = %d, want 8", d)
	}

	// Every bounded workload: the statically derived expression,
	// evaluated under the workload's parameters, must fit the declared
	// budget.
	cases := []struct {
		meta artifact.Meta
		ops  []string
	}{
		{artifact.Meta{Workload: "unicons", N: 2, V: 1},
			[]string{"(*repro/internal/unicons.Object).Decide"}},
		{artifact.Meta{Workload: "hybridcas", N: 4, V: 2},
			[]string{"(*repro/internal/hybridcas.Object).CompareAndSwap", "(*repro/internal/hybridcas.Object).Read"}},
		{artifact.Meta{Workload: "multicons", P: 2, M: 1, V: 1},
			[]string{"(*repro/internal/multicons.Algorithm).Decide"}},
		{artifact.Meta{Workload: "universal", N: 3, V: 1},
			[]string{"(*repro/internal/universal.Counter).Inc"}},
	}
	for _, c := range cases {
		declared := artifact.DeclaredBound(c.meta)
		if declared <= 0 {
			t.Errorf("%s: DeclaredBound = %d, want positive", c.meta.Workload, declared)
			continue
		}
		env := artifact.BoundEnv(c.meta)
		for _, name := range c.ops {
			op := get(name)
			got, ok := op.Expr.Eval(env)
			if !ok {
				t.Errorf("%s: %s = %q does not evaluate under %v", c.meta.Workload, name, op.Bound, env)
				continue
			}
			if got > declared {
				t.Errorf("%s: %s derives %d statements (from %q), above the declared %d",
					c.meta.Workload, name, got, op.Bound, declared)
			}
		}
	}

	// The blocking negative control and the fair-scheduling-only Fig. 9
	// are the ONLY unbounded operations — LockCounter.Inc must fail the
	// static discipline (its marker says so), and nothing else may.
	wantUnbounded := map[string]bool{
		"(*repro/internal/baseline.LockCounter).Inc": true,
		"(*repro/internal/multicons.Fair).Decide":    true,
	}
	for _, op := range res.Bounds.Ops {
		if op.Unbounded != wantUnbounded[op.Func] {
			t.Errorf("%s unbounded = %v, want %v", op.Func, op.Unbounded, wantUnbounded[op.Func])
		}
	}
	if d := artifact.DeclaredBound(artifact.Meta{Workload: "lockcounter", N: 2, V: 2}); d != 0 {
		t.Errorf("DeclaredBound(lockcounter) = %d, want 0 (blocking control declares no bound)", d)
	}
}
