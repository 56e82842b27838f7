package sim

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

// panicAt is an observer that panics with v on the statement at step,
// or, with arrival set, on the arrival at step.
type panicAt struct {
	step    int64
	arrival bool
	v       any
}

func (o panicAt) OnStatement(ev StmtEvent) {
	if !o.arrival && ev.Step == o.step {
		panic(o.v)
	}
}

func (o panicAt) OnSchedule(ev SchedEvent) {
	if o.arrival && ev.Kind == SchedArrive && ev.Step == o.step {
		panic(o.v)
	}
}

// TestKernelPanicsEscapeRun checks the contract for panics raised in the
// chooser or observer while a process settles its statement on its own
// coroutine: Run panics with the same value, no process reports it as
// its program's failure, and Close still tears the system down.
func TestKernelPanicsEscapeRun(t *testing.T) {
	boom := errors.New("boom")
	// Two processes each run two invocations of three statements. Under
	// the default chooser p0 runs first: its statements are steps 0-5,
	// it re-arrives in place at step 3, and step 5 ends its program.
	cases := []struct {
		name string
		cfg  Config
	}{
		// The first Pick (step 0) is made before any process runs; the
		// next one follows p0's first statement, on p0's coroutine.
		{"chooser", Config{Chooser: ChooserFunc(func(d Decision) int {
			if d.Step > 0 {
				panic(boom)
			}
			return 0
		})}},
		{"observer statement", Config{Observer: panicAt{step: 1, v: boom}}},
		{"observer arrival", Config{Observer: panicAt{step: 3, arrival: true, v: boom}}},
		{"observer at program end", Config{Observer: panicAt{step: 5, v: boom}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Processors = 1
			sys := New(cfg)
			for i := 0; i < 2; i++ {
				p := sys.AddProcess(ProcSpec{Processor: 0, Priority: 1})
				for j := 0; j < 2; j++ {
					p.AddInvocation(func(c *Ctx) { c.Local(3) })
				}
			}
			got := func() (r any) {
				defer func() { r = recover() }()
				err := sys.Run()
				t.Errorf("Run returned %v, want a panic", err)
				return nil
			}()
			if got != boom {
				t.Fatalf("Run panicked with %v, want %v", got, boom)
			}
			for _, p := range sys.Processes() {
				if p.Err() != nil {
					t.Errorf("%s: Err = %v, want nil", p.Name(), p.Err())
				}
			}
			sys.Close()
		})
	}
}

// handoffs counts statements run by a different process than the
// statement before them, the first statement included: each is a point
// where the processor changed hands.
type handoffs struct {
	n    int64
	last *Process
}

func (h *handoffs) OnStatement(ev StmtEvent) {
	if ev.Proc != h.last {
		h.n++
		h.last = ev.Proc
	}
}

func (*handoffs) OnSchedule(SchedEvent) {}

// uniformPick picks candidates uniformly from a seeded linear
// congruential stream. The tests of this package cannot import the
// registered scheduler models, which import the kernel.
func uniformPick(seed uint64) ChooserFunc {
	return func(d Decision) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % len(d.Candidates)
	}
}

// lockCounterSystem is the lockcounter workload: n processes over v
// priority levels on one processor, each incrementing a counter under
// a CAS spinlock (baseline.LockCounter.Inc, written out here).
func lockCounterSystem(cfg Config, n, v int) *System {
	sys := New(cfg)
	lock, val := mem.NewCASObject("lc.lock", 0), mem.NewReg("lc.value")
	for i := 0; i < n; i++ {
		sys.AddProcess(ProcSpec{Processor: 0, Priority: 1 + i%v}).
			AddInvocation(func(c *Ctx) {
				me := mem.Word(c.ID() + 1)
				for !c.CASPrim(lock, 0, me) {
				}
				c.Write(val, c.Read(val)+1)
				c.CASPrim(lock, me, 0)
			})
	}
	return sys
}

// uniconsSystem is the unicons workload: n processes deciding through
// the Fig. 3 consensus object (unicons.Object.Decide, written out here).
func uniconsSystem(cfg Config, n int) *System {
	sys := New(cfg)
	regs := mem.NewRegArray("cons.P", 3)
	for i := 0; i < n; i++ {
		val := mem.Word(i + 1)
		sys.AddProcess(ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *Ctx) {
				c.Local(1)
				v := val
				for _, r := range regs {
					if w := c.Read(r); w != mem.Bottom {
						v = w
						c.Local(1)
					} else {
						c.Write(r, v)
					}
				}
				c.Read(regs[2])
			})
	}
	return sys
}

// TestCoroutineSwitchesFollowHandoffs checks that the kernel resumes a
// process coroutine only to start it, to hand it the processor, or to
// unwind it: at most 2N resumes plus one per handoff, however many
// statements a process runs in a row. Under the seeded uniform picks
// the lock-based run starves, spinning its high-priority process
// through the whole step budget, and the unicons run completes.
func TestCoroutineSwitchesFollowHandoffs(t *testing.T) {
	cases := []struct {
		name     string
		build    func(Config) *System
		starving bool
	}{
		{"lockcounter", func(cfg Config) *System {
			cfg.Quantum, cfg.MaxSteps = 2, 2000
			return lockCounterSystem(cfg, 2, 2)
		}, true},
		{"unicons", func(cfg Config) *System {
			cfg.Quantum = 8
			return uniconsSystem(cfg, 3)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := &handoffs{}
			sys := tc.build(Config{Processors: 1, Chooser: uniformPick(1), Observer: obs})
			defer sys.Close()
			runErr := sys.Run()
			if starved := errors.Is(runErr, ErrStepLimit); starved != tc.starving || (!starved && runErr != nil) {
				t.Fatalf("Run = %v, want starving %v", runErr, tc.starving)
			}
			n := int64(len(sys.procs))
			if limit := 2*n + obs.n; sys.resumes > limit {
				t.Fatalf("%d coroutine resumes for %d statements, want at most 2N + %d handoffs = %d",
					sys.resumes, sys.steps, obs.n, limit)
			}
			t.Logf("%d statements, %d handoffs, %d resumes", sys.steps, obs.n, sys.resumes)
		})
	}
}
