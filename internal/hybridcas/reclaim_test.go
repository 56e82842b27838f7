package hybridcas_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/hybridcas"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// reclaimCounterBuilder mirrors casCounterBuilder over a reclaiming
// object.
func reclaimCounterBuilder(n, levels, opsPer, quantum, threshold int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 21})
		obj := hybridcas.NewReclaiming("cas", levels, n, 0, threshold)
		for i := 0; i < n; i++ {
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%levels})
			for k := 0; k < opsPer; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					for {
						v := obj.Read(c)
						if obj.CompareAndSwap(c, v, v+1) {
							return
						}
					}
				})
			}
		}
		sys.OnReset(func() {
			obj = hybridcas.NewReclaiming("cas", levels, n, 0, threshold)
		})
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			want := mem.Word(n * opsPer)
			if got := obj.Peek(); got != want {
				return fmt.Errorf("final = %d, want %d", got, want)
			}
			if got := obj.ChainLen(); got != n*opsPer {
				return fmt.Errorf("appends = %d, want %d", got, n*opsPer)
			}
			return nil
		}
		return sys, verify
	}
}

// TestReclaimCorrectUnderFuzz re-runs the counter workload over the
// reclaiming object under heavy schedule fuzzing: the reclaimed-cell
// panic in cellAt makes any unsafe free fatal and therefore detectable.
func TestReclaimCorrectUnderFuzz(t *testing.T) {
	for _, cfg := range []struct{ n, levels, ops, q, thr int }{
		{4, 2, 4, hybridcas.RecommendedQuantum, 2},
		{6, 3, 3, hybridcas.RecommendedQuantum, 1},
		{3, 1, 5, hybridcas.RecommendedQuantum, 3},
	} {
		res := check.Fuzz(reclaimCounterBuilder(cfg.n, cfg.levels, cfg.ops, cfg.q, cfg.thr), 250, check.Options{})
		if !res.OK() {
			t.Fatalf("cfg=%+v: violation: %+v", cfg, res.First())
		}
	}
}

// TestReclaimCorrectExhaustive explores every ≤3-deviation schedule of a
// small reclaiming configuration.
func TestReclaimCorrectExhaustive(t *testing.T) {
	res := check.ExploreBudget(reclaimCounterBuilder(2, 1, 2, hybridcas.RecommendedQuantum, 1), 3,
		check.Options{MaxSchedules: 20000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

// TestReclaimBoundedMemory pins the storage bound: as long as every
// priority level keeps accessing the object (here: one level), a long
// workload keeps live cells near O(N + V + threshold) instead of
// O(total ops). With idle levels reclamation stalls conservatively —
// the epoch-reclamation analogy documented in reclaim.go.
func TestReclaimBoundedMemory(t *testing.T) {
	const n, opsPer, threshold = 4, 40, 2
	sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum,
		Chooser: sched.NewUniform(11), MaxSteps: 1 << 23})
	obj := hybridcas.NewReclaiming("cas", 1, n, 0, threshold)
	for i := 0; i < n; i++ {
		p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
		for k := 0; k < opsPer; k++ {
			p.AddInvocation(func(c *sim.Ctx) {
				for {
					v := obj.Read(c)
					if obj.CompareAndSwap(c, v, v+1) {
						return
					}
				}
			})
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := obj.Peek(); got != n*opsPer {
		t.Fatalf("final = %d, want %d", got, n*opsPer)
	}
	if obj.FreedCells() == 0 {
		t.Fatal("reclamation never freed a cell")
	}
	// Total cells ever allocated is >= n*opsPer (one per successful op,
	// plus failed attempts); live cells must stay far below that.
	bound := 8 * (n + 2 + threshold)
	if live := obj.LiveCells(); live > bound {
		t.Fatalf("live cells = %d exceeds bound %d (freed %d)", live, bound, obj.FreedCells())
	}
	t.Logf("live=%d freed=%d appends=%d", obj.LiveCells(), obj.FreedCells(), obj.ChainLen())
}

// TestReclaimRejectsBadThreshold pins the constructor guard.
func TestReclaimRejectsBadThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("threshold 0 accepted")
		}
	}()
	hybridcas.NewReclaiming("bad", 1, 1, 0, 0)
}

// TestReclaimRejectsUnknownProcess pins the process-count guards: the
// constructor refuses a count below 1, and a process whose ID is at or
// above the count fails its first operation instead of going unseen by
// every reclamation pass.
func TestReclaimRejectsUnknownProcess(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("0 processes accepted")
			}
		}()
		hybridcas.NewReclaiming("bad", 1, 0, 0, 1)
	}()
	sys := sim.New(sim.Config{Processors: 1, Quantum: hybridcas.RecommendedQuantum, Chooser: sched.NewUniform(1)})
	defer sys.Close()
	obj := hybridcas.NewReclaiming("cas", 1, 1, 0, 1)
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).AddInvocation(func(c *sim.Ctx) { obj.Read(c) })
	}
	const want = "process id 1 outside the 1 processes the reclaiming object was built for"
	if err := sys.Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run = %v, want a panic naming %q", err, want)
	}
}

// TestReclaimThreeProcessesBudget pins a configuration in which budget
// exploration reaches a missed publication: three processes, one level,
// two increments each, Q=8 and a pass after every retired cell. A pass
// that scans only the Active registers made by earlier operations,
// before the hints, frees a cell that a running operation still holds
// here within about 27,000 schedules.
func TestReclaimThreeProcessesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explores about 85,000 schedules")
	}
	res := check.ExploreBudget(reclaimCounterBuilder(3, 1, 2, 8, 1), 2,
		check.Options{Parallelism: 1, StopAtFirst: true})
	if !res.OK() || res.Truncated {
		t.Fatalf("violation after %d schedules (truncated=%v): %+v", res.Schedules, res.Truncated, res.First())
	}
	t.Logf("verified %d schedules", res.Schedules)
}

// phase runs one process until done reports the end of the phase.
type phase struct {
	proc int
	done func(ev sim.StmtEvent) bool // nil: run the process to the end
}

// rewindAdversary is a chooser that plays its phases in order, and an
// observer that ends each phase.
type rewindAdversary struct {
	t      *testing.T
	phases []phase
	cur    int
}

func (a *rewindAdversary) Pick(d sim.Decision) int {
	for a.cur < len(a.phases) {
		ph := a.phases[a.cur]
		for i, p := range d.Candidates {
			if p.ID() == ph.proc {
				return i
			}
		}
		if d.Procs[ph.proc].Live() {
			a.t.Errorf("phase %d: process %d is live but not a candidate", a.cur, ph.proc)
			return 0
		}
		a.cur++
	}
	return 0
}

func (a *rewindAdversary) OnStatement(ev sim.StmtEvent) {
	if a.cur >= len(a.phases) {
		return
	}
	ph := a.phases[a.cur]
	if ev.Proc.ID() != ph.proc || ph.done == nil {
		return
	}
	if ph.done(ev) {
		a.cur++
	}
}

func (a *rewindAdversary) OnSchedule(sim.SchedEvent) {}

// TestReclaimSecondActiveScan drives the interleaving that a pass
// reading only the hints, the Active registers and the hints again
// misses (reclaim.go, "A2 is what catches a missed publication"):
//
//  1. X appends two cells and begins its pass; its Active register is
//     idle.
//  2. D appends its cell and certifies Hd[1]'s slot 2 as the latest,
//     then waits before deciding slot 3.
//  3. P appends K (slot 3) and A (slot 4), begins its pass, reads the
//     hint (A) and the Active registers of X (idle) and P, and waits.
//  4. D decides slot 3 (K), writes the hint back to K, and returns.
//  5. X finishes its pass, publishes, reads the hint (K), and waits.
//  6. D appends B and moves the hint to slot 5 (B), and returns.
//  7. P reads D's register (idle) and the hint (B): every hint and every
//     published register it read is deeper than K, so without A2 it
//     frees K.
//  8. X reads K's depth.
func TestReclaimSecondActiveScan(t *testing.T) {
	const x, p, d = 0, 1, 2 // process IDs
	const hint = "cas.Hd[1].cur"
	is := func(ev sim.StmtEvent, op sim.Op, obj string) bool { return ev.Op == op && ev.Object == obj }
	hints := map[string]uint64{} // the hint value each role read or wrote
	val2, floorWritten := 0, false
	adv := &rewindAdversary{t: t, phases: []phase{
		{x, func(ev sim.StmtEvent) bool { return ev.Op == sim.OpRead && strings.HasPrefix(ev.Object, "active[") }},
		{d, func(ev sim.StmtEvent) bool {
			if is(ev, sim.OpRead, "cas.Hd[1].val[2]") {
				val2++ // updateHd's Load, then its CAS's certificate
			}
			return val2 == 2
		}},
		{p, func(ev sim.StmtEvent) bool {
			if is(ev, sim.OpRead, hint) {
				hints["P H1"] = ev.Value
			}
			return is(ev, sim.OpRead, "active[1]")
		}},
		{d, func(ev sim.StmtEvent) bool {
			if is(ev, sim.OpWrite, hint) {
				hints["D rewind"] = ev.Value
			}
			return is(ev, sim.OpWrite, "active[2]")
		}},
		{x, func(ev sim.StmtEvent) bool {
			floorWritten = floorWritten || is(ev, sim.OpWrite, "cas.floor")
			if floorWritten && is(ev, sim.OpRead, hint) {
				hints["X"] = ev.Value
				return true
			}
			return false
		}},
		{d, nil},
		{p, func(ev sim.StmtEvent) bool {
			if is(ev, sim.OpRead, hint) {
				hints["P H2"] = ev.Value
			}
			return false
		}},
		{x, nil},
	}}
	sys := sim.New(sim.Config{Processors: 1, Quantum: 8, Chooser: adv, Observer: adv, MaxSteps: 1 << 16})
	defer sys.Close()
	obj := hybridcas.NewReclaiming("cas", 1, 3, 0, 2)
	incs := []int{x: 3, p: 2, d: 2}
	for id, n := range incs {
		proc := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
		if proc.ID() != id {
			t.Fatalf("process %d got ID %d", id, proc.ID())
		}
		for range n {
			proc.AddInvocation(func(c *sim.Ctx) {
				for {
					v := obj.Read(c)
					if obj.CompareAndSwap(c, v, v+1) {
						return
					}
				}
			})
		}
	}
	err := sys.Run()
	seq := func(role string) string { return fmt.Sprint(hints[role] >> 32) }
	got := fmt.Sprintf("P H1 slot %s, D rewinds to slot %s, X reads slot %s, P H2 slot %s",
		seq("P H1"), seq("D rewind"), seq("X"), seq("P H2"))
	if want := "P H1 slot 4, D rewinds to slot 3, X reads slot 3, P H2 slot 5"; got != want {
		t.Fatalf("the adversary did not play the interleaving: %s, want %s (run: %v)", got, want, err)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := obj.Peek(), mem.Word(7); got != want {
		t.Fatalf("final = %d, want %d", got, want)
	}
}
