package artifact

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/hybridcas"
	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/qlocal"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/unicons"
	"repro/internal/universal"
)

// BuildFunc constructs a workload's system wired to the given chooser
// and (possibly nil) external observer, and returns the post-run
// verifier. Builders that install their own observer (e.g. an axiom
// auditor) must tee it with obs. Builders must be deterministic
// functions of (meta, decision sequence): replaying the same decisions
// must reproduce the identical run.
type BuildFunc func(meta Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error)

// workloads is the replayable-workload registry. Every entry must build
// the system solely from Meta, so a saved bundle reconstructs the exact
// system that failed.
var workloads = map[string]BuildFunc{
	"unicons":     buildUnicons,
	"multicons":   buildMulticons,
	"hybridcas":   buildHybridCAS,
	"universal":   buildUniversal,
	"lockcounter": buildLockCounter,
	"soakmix":     buildSoakMix,
}

// Known reports whether a workload name is registered.
func Known(workload string) bool {
	_, ok := workloads[workload]
	return ok
}

// Workloads returns the registered workload names, sorted.
func Workloads() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build constructs meta's workload, or reports an unknown workload name.
func Build(meta Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error, error) {
	build, err := builderFor(meta)
	if err != nil {
		return nil, nil, err
	}
	sys, verify := build(meta, ch, obs)
	return sys, verify, nil
}

func builderFor(meta Meta) (BuildFunc, error) {
	build, ok := workloads[meta.Workload]
	if !ok {
		return nil, fmt.Errorf("artifact: unknown workload %q (have %v)", meta.Workload, Workloads())
	}
	return build, nil
}

func defInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func defInt64(v, def int64) int64 {
	if v <= 0 {
		return def
	}
	return v
}

// verifyAgreement is the consensus verifier shared by the unicons and
// multicons workloads: every process decided, and all decisions agree.
func verifyAgreement(outs []mem.Word) func(error) error {
	return func(runErr error) error {
		if runErr != nil {
			return fmt.Errorf("run failed: %w", runErr)
		}
		for i, o := range outs {
			if o == mem.Bottom {
				return fmt.Errorf("process %d decided ⊥", i)
			}
			if o != outs[0] {
				return fmt.Errorf("agreement violated: %v", outs)
			}
		}
		return nil
	}
}

// buildUnicons is the Fig. 3 uniprocessor consensus workload: Meta.N
// deciders across Meta.V priority levels at Meta.Quantum.
func buildUnicons(m Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error) {
	n, v := defInt(m.N, 2), defInt(m.V, 1)
	sys := sim.New(sim.Config{Processors: 1, Quantum: m.Quantum, Chooser: ch,
		MaxSteps: defInt64(m.MaxSteps, 1<<18), Observer: obs})
	obj := unicons.New("cons")
	outs := make([]mem.Word, n)
	for i := 0; i < n; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v}).
			AddInvocation(func(c *sim.Ctx) { outs[i] = obj.Decide(c, mem.Word(i+1)) })
	}
	sys.OnReset(func() {
		obj.Reset()
		clear(outs)
	})
	return sys, verifyAgreement(outs)
}

// buildMulticons is the Fig. 7 multiprocessor consensus workload:
// Meta.P processors times Meta.M processes over Meta.V levels, with
// consensus number C = P + Meta.K.
func buildMulticons(m Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error) {
	p, mm, v := defInt(m.P, 2), defInt(m.M, 1), defInt(m.V, 1)
	sys := sim.New(sim.Config{Processors: p, Quantum: m.Quantum, Chooser: ch,
		MaxSteps: defInt64(m.MaxSteps, 1<<23), Observer: obs})
	cfg := multicons.Config{Name: "f7", P: p, K: m.K, M: mm, V: v}
	alg := multicons.New(cfg)
	outs := make([]mem.Word, p*mm)
	id := 0
	for i := 0; i < p; i++ {
		for j := 0; j < mm; j++ {
			me := id
			sys.AddProcess(sim.ProcSpec{Processor: i, Priority: 1 + j%v}).
				AddInvocation(func(c *sim.Ctx) { outs[me] = alg.Decide(c, mem.Word(me+1)) })
			id++
		}
	}
	// Rebuild-in-hook: the Fig. 7 instance holds per-run decision state
	// throughout its register tree, so a pooled rerun swaps in a fresh
	// instance under the same name (identical ids, footprints, and
	// fingerprints — the invocation closures capture the variable).
	sys.OnReset(func() {
		alg = multicons.New(cfg)
		clear(outs)
	})
	return sys, verifyAgreement(outs)
}

// buildHybridCAS is the Fig. 5 C&S workload: Meta.N processes across
// Meta.V levels race one CompareAndSwap(0, id+1) each. Exactly one must
// win; below the object's quantum bound the underlying consensus cells
// break and double (or zero) wins appear.
func buildHybridCAS(m Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error) {
	n, v := defInt(m.N, 2), defInt(m.V, 1)
	sys := sim.New(sim.Config{Processors: 1, Quantum: m.Quantum, Chooser: ch,
		MaxSteps: defInt64(m.MaxSteps, 1<<18), Observer: obs})
	obj := hybridcas.New("cas", v, 0)
	wins := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v}).
			AddInvocation(func(c *sim.Ctx) { wins[i] = obj.CompareAndSwap(c, 0, mem.Word(i+1)) })
	}
	sys.OnReset(func() {
		obj = hybridcas.New("cas", v, 0)
		clear(wins)
	})
	verify := func(runErr error) error {
		if runErr != nil {
			return fmt.Errorf("run failed: %w", runErr)
		}
		won := 0
		for _, w := range wins {
			if w {
				won++
			}
		}
		if won != 1 {
			return fmt.Errorf("CAS(0,·) had %d winners, want exactly 1: %v", won, wins)
		}
		return nil
	}
	return sys, verify
}

// buildUniversal is the universal-counter workload: Meta.N processes
// across Meta.V levels each increment a wait-free counter once. The
// verifier demands the final value equal the number of increments whose
// invocations ran to completion — deliberately crash-unaware, so a
// planned crash that lands after an increment linearizes but before its
// invocation finishes yields the classic lost-accounting counterexample.
func buildUniversal(m Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error) {
	n, v := defInt(m.N, 2), defInt(m.V, 1)
	sys := sim.New(sim.Config{Processors: 1, Quantum: m.Quantum, Chooser: ch,
		MaxSteps: defInt64(m.MaxSteps, 1<<20), Observer: obs})
	ctr := universal.NewCounter("ctr", 0)
	completed := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v}).
			AddInvocation(func(c *sim.Ctx) {
				ctr.Inc(c)
				completed[i] = true
			})
	}
	sys.OnReset(func() {
		ctr = universal.NewCounter("ctr", 0)
		clear(completed)
	})
	verify := func(runErr error) error {
		if runErr != nil {
			return fmt.Errorf("run failed: %w", runErr)
		}
		done := 0
		for _, ok := range completed {
			if ok {
				done++
			}
		}
		if got := ctr.Peek(); got != mem.Word(done) {
			return fmt.Errorf("counter reads %d after %d completed increments", got, done)
		}
		return nil
	}
	return sys, verify
}

// buildLockCounter is the blocking negative control: Meta.N processes
// across Meta.V ≥ 2 levels each increment a spinlock-guarded counter.
// Under priority inversion a preempted lock holder never runs again
// below a spinning higher-priority waiter; with Meta.WaitFreeBound set,
// the replay fails with a wait-freedom violation (the verifier itself
// only checks the counter when the run completes).
func buildLockCounter(m Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error) {
	n, v := defInt(m.N, 2), defInt(m.V, 2)
	sys := sim.New(sim.Config{Processors: 1, Quantum: m.Quantum, Chooser: ch,
		MaxSteps: defInt64(m.MaxSteps, 1<<12), Observer: obs})
	ctr := baseline.NewLockCounter("lc", 0)
	completed := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v}).
			AddInvocation(func(c *sim.Ctx) {
				ctr.Inc(c)
				completed[i] = true
			})
	}
	sys.OnReset(func() {
		ctr.Reset()
		clear(completed)
	})
	verify := func(runErr error) error {
		if runErr != nil {
			return fmt.Errorf("run failed: %w", runErr)
		}
		done := 0
		for _, ok := range completed {
			if ok {
				done++
			}
		}
		if got := ctr.Peek(); got != mem.Word(done) {
			return fmt.Errorf("lock counter reads %d after %d increments", got, done)
		}
		return nil
	}
	return sys, verify
}

// soakOpsSalt decorrelates the ops-plan PRNG from the parameter PRNG so
// the workload shape (N, V, Q) can be stored explicitly in Meta — and
// edited by the shrinker — without re-deriving the operation mix.
const soakOpsSalt = 0x736f616b6d6978 // "soakmix"

// soakGolden is the Weyl increment soak runs use to derive per-run seeds
// from a base seed.
const soakGolden = 0x9e3779b97f4a7c15

// SoakMeta derives run idx of a soak sweep: the randomized mixed
// workload (its N, V, Q resolved into the Meta) plus the seeded-random
// schedule and crash plan cmd/soak executes. maxCrashes is capped at
// N-1 so wait-freedom keeps a survivor to talk about.
func SoakMeta(base, crashBase, idx int64, maxCrashes int) (Meta, Sched) {
	workSeed := int64(uint64(base) + uint64(idx)*soakGolden)
	rng := rand.New(sched.NewSource(workSeed))
	n := 2 + rng.Intn(6)
	levels := 1 + rng.Intn(3)
	quantum := qlocal.RecommendedQuantum + rng.Intn(32)
	schedSeed := rng.Int63()

	meta := Meta{
		Workload: "soakmix",
		N:        n,
		V:        levels,
		Quantum:  quantum,
		MaxSteps: 1 << 22,
		WorkSeed: workSeed,
	}
	s := Sched{Random: true, Seed: schedSeed}
	if k := min(maxCrashes, n-1); k > 0 {
		s.CrashSeed = int64(uint64(crashBase) + uint64(idx)*soakGolden)
		s.MaxCrashes = k
	}
	return meta, s
}

// SeededMeta derives run idx of a fixed-workload soak sweep: unlike
// SoakMeta, the workload identity (name, N, V, Quantum, wait-freedom
// bound) is pinned by the caller and only the schedule — a seeded
// random chooser plus an optional seeded crash plan — varies with the
// run index. This is how a campaign soaks a single registered family
// (e.g. the lockcounter negative control under a wait-freedom bound)
// instead of the randomized soakmix: every run is still a pure
// function of (spec, idx), so the campaign resumes and replays
// exactly. maxCrashes is capped at N-1, matching SoakMeta.
func SeededMeta(workload string, n, v, quantum int, wfBound int64, base, crashBase, idx int64, maxCrashes int) (Meta, Sched) {
	schedSeed := int64(uint64(base) + uint64(idx)*soakGolden)
	meta := Meta{
		Workload:      workload,
		N:             n,
		V:             v,
		Quantum:       quantum,
		WaitFreeBound: wfBound,
	}
	s := Sched{Random: true, Seed: schedSeed}
	procs := defInt(n, 2)
	if k := min(maxCrashes, procs-1); k > 0 {
		s.CrashSeed = int64(uint64(crashBase) + uint64(idx)*soakGolden)
		s.MaxCrashes = k
	}
	return meta, s
}

// buildSoakMix is the cmd/soak mixed workload: each of Meta.N processes
// first runs Fig. 3 consensus, then a WorkSeed-derived mix of reclaiming
// C&S increments, universal counter increments, and queue operations.
// The verifier applies the crash-tolerant soak invariants: survivors
// agree on consensus, crashed processes that decided agree too, the
// queue imbalance is bounded by the crash count, and an independent
// auditor re-verifies Axioms 1-2 from the event stream.
func buildSoakMix(m Meta, ch sim.Chooser, obs sim.Observer) (*sim.System, func(error) error) {
	n, v := defInt(m.N, 2), defInt(m.V, 1)
	opsRng := rand.New(sched.NewSource(m.WorkSeed ^ soakOpsSalt))

	aud := sim.NewAuditor(m.Quantum)
	var observer sim.Observer = aud
	if obs != nil {
		observer = &sim.Tee{Observers: []sim.Observer{aud, obs}}
	}
	sys := sim.New(sim.Config{Processors: 1, Quantum: m.Quantum, Chooser: ch,
		MaxSteps: defInt64(m.MaxSteps, 1<<22), Observer: observer})

	cons := unicons.New("cons")
	cas := hybridcas.NewReclaiming("cas", v, n, 0, 2)
	ctr := universal.NewCounter("ctr", 0)
	q := universal.NewQueue("q")

	// consOuts uses 0 as the "never finished" sentinel (proposals are
	// 1..n); ops are counted only when their invocation ran to the end,
	// so a crashed process's in-flight op is uncounted even if applied.
	consOuts := make([]mem.Word, n)
	procs := make([]*sim.Process, n)
	enqs, deqs := 0, 0

	for i := 0; i < n; i++ {
		i := i
		procs[i] = sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v})
		p := procs[i]
		p.AddInvocation(func(c *sim.Ctx) {
			consOuts[i] = cons.Decide(c, mem.Word(i+1))
		})
		ops := 1 + opsRng.Intn(3)
		for op := 0; op < ops; op++ {
			switch opsRng.Intn(4) {
			case 0:
				p.AddInvocation(func(c *sim.Ctx) {
					for {
						v := cas.Read(c)
						if cas.CompareAndSwap(c, v, v+1) {
							return
						}
					}
				})
			case 1:
				p.AddInvocation(func(c *sim.Ctx) {
					ctr.Inc(c)
				})
			case 2:
				p.AddInvocation(func(c *sim.Ctx) {
					q.Enq(c, mem.Word(i))
					enqs++
				})
			default:
				p.AddInvocation(func(c *sim.Ctx) {
					if q.Deq(c) != universal.QueueEmpty {
						deqs++
					}
				})
			}
		}
	}

	sys.OnReset(func() {
		cons.Reset()
		cas = hybridcas.NewReclaiming("cas", v, n, 0, 2)
		ctr = universal.NewCounter("ctr", 0)
		q = universal.NewQueue("q")
		clear(consOuts)
		enqs, deqs = 0, 0
		aud.Reset()
	})
	verify := func(runErr error) error {
		if runErr != nil {
			return fmt.Errorf("run failed: %w", runErr)
		}
		crashed := 0
		decided := mem.Word(0)
		for i, p := range procs {
			if p.Crashed() {
				crashed++
				continue
			}
			if consOuts[i] == 0 || consOuts[i] == mem.Bottom {
				return fmt.Errorf("survivor %d never decided: %v", i, consOuts)
			}
			if decided == 0 {
				decided = consOuts[i]
			} else if consOuts[i] != decided {
				return fmt.Errorf("consensus disagreement at %d: %v", i, consOuts)
			}
		}
		for i, p := range procs {
			if p.Crashed() && consOuts[i] != 0 && consOuts[i] != decided {
				return fmt.Errorf("crashed process %d recorded %d != decided %d", i, consOuts[i], decided)
			}
		}
		// Each crashed process has at most one in-flight queue op that
		// may have been applied without being counted, so the imbalance
		// is bounded by the crash count (exactly 0 without crashes).
		if d := deqs + q.PeekLen() - enqs; d < -crashed || d > crashed {
			return fmt.Errorf("queue imbalance %d exceeds %d crashes: %d deq + %d left vs %d enq",
				d, crashed, deqs, q.PeekLen(), enqs)
		}
		return aud.Err()
	}
	return sys, verify
}
