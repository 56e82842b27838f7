package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

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

// panicCrasher is a crash injector that panics with v at every step
// after the first.
type panicCrasher struct{ v any }

func (panicCrasher) Pick(Decision) int { return 0 }

func (c panicCrasher) Crashes(d Decision) []*Process {
	if d.Step > 0 {
		panic(c.v)
	}
	return nil
}

// TestKernelPanicsEscapeRun checks the contract for panics raised in the
// chooser, crash injector or observer while a process settles its
// statement on its own coroutine: Run panics with the same value, no
// process reports it as its program's failure, and Close still tears
// the system down.
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
		// The crash poll after p0's first statement runs on p0's
		// coroutine, like the Pick that follows it.
		{"crasher", Config{Chooser: panicCrasher{boom}}},
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

// crashAll is a crash injector that halts every process at the first
// decision of a run.
type crashAll struct{ fired bool }

func (c *crashAll) Pick(Decision) int { return 0 }

func (c *crashAll) Crashes(d Decision) []*Process {
	if c.fired {
		return nil
	}
	c.fired = true
	return d.Procs
}

// TestFirstDecisionEndsResumeNothing pins the first-yield protocol: Run
// takes each process's first yield without resuming its coroutine, so a
// run that ends at its first decision, by PickAbort or by crashing
// every process, resumes no coroutine, and leaves no process live.
func TestFirstDecisionEndsResumeNothing(t *testing.T) {
	cases := []struct {
		name    string
		build   func(Config) *System
		chooser func() Chooser
		want    error
	}{
		{"unicons/abort", func(cfg Config) *System { return uniconsSystem(cfg, 3) },
			func() Chooser { return ChooserFunc(func(Decision) int { return PickAbort }) }, ErrPickAbort},
		{"lockcounter/abort", func(cfg Config) *System { return lockCounterSystem(cfg, 2, 2) },
			func() Chooser { return ChooserFunc(func(Decision) int { return PickAbort }) }, ErrPickAbort},
		{"unicons/crash", func(cfg Config) *System { return uniconsSystem(cfg, 3) },
			func() Chooser { return &crashAll{} }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build(Config{Processors: 1, Quantum: 2, Chooser: tc.chooser()})
			defer sys.Close()
			if err := sys.Run(); !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
				t.Fatalf("Run = %v, want %v", err, tc.want)
			}
			if sys.resumes != 0 || sys.steps != 0 {
				t.Fatalf("%d resumes and %d statements, want none", sys.resumes, sys.steps)
			}
			for _, p := range sys.procs {
				if p.Live() {
					t.Errorf("%s still live after the run ended", p.Name())
				}
			}
		})
	}
}

// TestRunAfterCloseEndsAtOnce checks that a closed system reruns to an
// immediate, clean end: Reset and Run after Close execute no statement
// and return nil, whether Close followed a completed run, a run aborted
// before any coroutine started, or no run at all.
func TestRunAfterCloseEndsAtOnce(t *testing.T) {
	cases := []struct {
		name    string
		chooser Chooser
		runs    int
	}{
		{"after a completed run", uniformPick(3), 1},
		{"after a first-decision abort", ChooserFunc(func(Decision) int { return PickAbort }), 1},
		{"before any run", uniformPick(3), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := uniconsSystem(Config{Processors: 1, Quantum: 8, Chooser: tc.chooser}, 3)
			for i := 0; i < tc.runs; i++ {
				_ = sys.Run() // the runs before Close are not under test
			}
			sys.Close()
			sys.Reset()
			done := make(chan error, 1)
			go func() { done <- sys.Run() }()
			select {
			case err := <-done:
				if err != nil || sys.Steps() != 0 {
					t.Fatalf("Run after Close = %v after %d statements, want nil after 0", err, sys.Steps())
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run after Close did not return")
			}
		})
	}
}

// TestSkipFingerprintPanics checks the upkeep contract: once the owner
// declines the fingerprint upkeep, Fingerprint and MemFingerprint panic
// rather than return a stale value, after Reset too.
func TestSkipFingerprintPanics(t *testing.T) {
	sys := uniconsSystem(Config{Processors: 1, Quantum: 8, Chooser: uniformPick(5)}, 3)
	defer sys.Close()
	sys.SkipFingerprint()
	reads := []struct {
		name string
		read func() uint64
	}{
		{"Fingerprint", sys.Fingerprint},
		{"MemFingerprint", sys.MemFingerprint},
	}
	for run := 0; run < 2; run++ {
		if run > 0 {
			sys.Reset()
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for _, r := range reads {
			got := func() (msg any) {
				defer func() { msg = recover() }()
				v := r.read()
				t.Errorf("run %d: %s = %#x after SkipFingerprint, want a panic", run, r.name, v)
				return nil
			}()
			if s, _ := got.(string); !strings.Contains(s, "SkipFingerprint") {
				t.Errorf("run %d: %s panicked with %v, want a message naming SkipFingerprint", run, r.name, got)
			}
		}
	}
}
