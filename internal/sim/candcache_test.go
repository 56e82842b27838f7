package sim_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
	"repro/internal/sim"
)

// candidateCheck holds the kernel's candidate list, which it keeps from
// one decision to the next, against a from-scratch recomputation at
// every decision point it sees.
type candidateCheck struct {
	t       *testing.T
	label   string
	inner   sim.Chooser
	checked int // decision points compared
	singles int // of which had one candidate
	fails   int
}

// candidateScan is the from-scratch recomputation export_test.go adds
// to *sim.System. The test reaches it through an interface because
// reprolint type-checks an external test package against the package
// without its _test.go files, where the method does not exist.
type candidateScan interface{ RecomputeCandidates() []*sim.Process }

func (c *candidateCheck) compare(d sim.Decision) {
	c.checked++
	if len(d.Candidates) == 1 {
		c.singles++
	}
	want := any(d.Sys).(candidateScan).RecomputeCandidates()
	if slices.Equal(d.Candidates, want) {
		return
	}
	if c.fails++; c.fails <= 3 {
		c.t.Errorf("%s: step %d: kernel candidates %s, recomputed %s", c.label, d.Step, procIDs(d.Candidates), procIDs(want))
	}
}

func procIDs(ps []*sim.Process) string {
	ids := make([]int, len(ps))
	for i, p := range ps {
		ids[i] = p.ID()
	}
	return fmt.Sprint(ids)
}

// pickHook compares at Pick only, so the kernel makes its decisions in
// place on the running process's coroutine and resolves singleton
// decisions without a call.
type pickHook struct{ *candidateCheck }

func (h pickHook) Pick(d sim.Decision) int { h.compare(d); return h.inner.Pick(d) }
func (h pickHook) ReadsSince() bool        { return sim.ReadsSince(h.inner) }

// crashHook is an armed Crasher: the kernel polls it at every decision
// point, singletons included, on the deciding process's coroutine or
// in Run. It fires the inner chooser's crashes, if any.
type crashHook struct{ *candidateCheck }

func (h crashHook) Pick(d sim.Decision) int { h.compare(d); return h.inner.Pick(d) }
func (h crashHook) ReadsSince() bool        { return sim.ReadsSince(h.inner) }

func (h crashHook) Crashes(d sim.Decision) []*sim.Process {
	h.compare(d)
	if cr, ok := h.inner.(sim.Crasher); ok {
		return cr.Crashes(d)
	}
	return nil
}

// lockstepChoosers are the scheduler models the lockstep test runs at
// each seed: stochastic, stochastic with crashes, a switch word and a
// decision script.
var lockstepChoosers = []struct {
	name string
	spec func(seed int64) *sched.ModelSpec
}{
	{"uniform", func(seed int64) *sched.ModelSpec {
		return &sched.ModelSpec{Name: "uniform", Seed: seed}
	}},
	{"randomcrash", func(seed int64) *sched.ModelSpec {
		return &sched.ModelSpec{Name: "randomcrash", Seed: seed, Params: map[string]float64{"max": 2, "prob": 0.05},
			Inner: &sched.ModelSpec{Name: "uniform", Seed: seed}}
	}},
	{"budgeted", func(seed int64) *sched.ModelSpec {
		return &sched.ModelSpec{Name: "budgeted", Params: map[string]float64{"budget": 3},
			Decisions: []int{int(seed % 4), 1, 4 + int(seed%5), 0, 10 + int(seed), 2}}
	}},
	{"script", func(seed int64) *sched.ModelSpec {
		rng := rand.New(rand.NewPCG(uint64(seed), 1))
		dec := make([]int, 40)
		for i := range dec {
			dec[i] = rng.IntN(3)
		}
		return &sched.ModelSpec{Name: "script", Decisions: dec}
	}},
}

var lockstepSeeds = []int64{1, 2, 3, 4}

// workloadRows configures every registered artifact workload for the
// tests that run each one on a pooled system.
var workloadRows = map[string]artifact.Meta{
	"unicons":     {Workload: "unicons", N: 3, V: 2, Quantum: 2},
	"multicons":   {Workload: "multicons", P: 2, M: 2, V: 2, Quantum: 4, MaxSteps: 1 << 14},
	"hybridcas":   {Workload: "hybridcas", N: 3, V: 2, Quantum: 4},
	"universal":   {Workload: "universal", N: 3, V: 2, Quantum: 4, MaxSteps: 1 << 14},
	"lockcounter": {Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000},
	"soakmix":     {Workload: "soakmix", N: 3, V: 2, Quantum: 8, WorkSeed: 5},
}

// lockstepHooks are the two ways a check sees decisions.
var lockstepHooks = []struct {
	name string
	wrap func(c *candidateCheck) sim.Chooser
}{
	{"crash-hook", func(c *candidateCheck) sim.Chooser { return crashHook{c} }},
	{"pick-hook", func(c *candidateCheck) sim.Chooser { return pickHook{c} }},
}

// newLockstepChooser builds the row's model for seed.
func newLockstepChooser(t *testing.T, spec *sched.ModelSpec) sim.Chooser {
	t.Helper()
	ch, err := sched.NewFromSpec(spec)
	if err != nil {
		t.Fatalf("NewFromSpec(%s): %v", spec, err)
	}
	return ch
}

// TestCandidateCacheLockstep pins the candidate cache: the list the
// kernel reuses until scheduling state changes equals the per-processor
// scan recomputed from scratch at every decision point, singleton
// decisions included. It runs every registered artifact workload on one
// pooled system per row, so the Reset path is covered too, and the
// sim tests' dynamic-priority and two-processor builders one run at a
// time.
func TestCandidateCacheLockstep(t *testing.T) {
	for _, name := range artifact.Workloads() {
		meta, ok := workloadRows[name]
		if !ok {
			t.Errorf("registered workload %q has no lockstep row", name)
			continue
		}
		for _, cs := range lockstepChoosers {
			for _, hook := range lockstepHooks {
				label := name + "/" + cs.name + "/" + hook.name
				t.Run(label, func(t *testing.T) {
					c := &candidateCheck{t: t, label: label}
					sys, _, err := artifact.Build(meta, hook.wrap(c), nil)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					if !sys.Reusable() {
						t.Fatalf("%s: workload system is not reusable", name)
					}
					for i, seed := range lockstepSeeds {
						if i > 0 {
							sys.Reset()
						}
						c.inner = newLockstepChooser(t, cs.spec(seed))
						_ = sys.Run() // step limits and verdicts are not under test
					}
					c.requireCoverage(t, hook.name)
				})
			}
		}
	}
	builders := []struct {
		name  string
		build func(sim.Chooser) *sim.System
	}{
		{"dynpri", func(ch sim.Chooser) *sim.System { sys, _ := fig3DynamicPriorities(ch); return sys }},
		{"tworeg", func(ch sim.Chooser) *sim.System { sys, _ := sharedRegisterSystem(ch); return sys }},
	}
	for _, b := range builders {
		for _, cs := range lockstepChoosers {
			for _, hook := range lockstepHooks {
				label := b.name + "/" + cs.name + "/" + hook.name
				t.Run(label, func(t *testing.T) {
					c := &candidateCheck{t: t, label: label}
					for _, seed := range lockstepSeeds {
						c.inner = newLockstepChooser(t, cs.spec(seed))
						sys := b.build(hook.wrap(c))
						_ = sys.Run()
						sys.Close()
					}
					c.requireCoverage(t, hook.name)
				})
			}
		}
	}
}

// requireCoverage fails a row whose hook saw no decisions, or, for the
// crash hook, no singleton decisions: such a row would pass vacuously.
func (c *candidateCheck) requireCoverage(t *testing.T, hook string) {
	t.Helper()
	if c.checked == 0 {
		t.Fatalf("%s: no decision point checked", c.label)
	}
	if hook == "crash-hook" && c.singles == 0 {
		t.Fatalf("%s: crash hook saw no singleton decision", c.label)
	}
}
