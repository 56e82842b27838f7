package sim_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// switchLog records a run's events as text, with process IDs, and
// counts what bounds its coroutine resumes: handoffs (statements run by
// a different process than the statement before them, the first
// included), crash victims, the steps at which they fell, and programs
// that ran to their end. last is the process of the latest statement.
type switchLog struct {
	evs        []string
	handoffs   int64
	victims    int64
	crashSteps int64
	done       int64
	last       *sim.Process
	lastCrash  int64
}

func (l *switchLog) reset() { *l = switchLog{evs: l.evs[:0], lastCrash: -1} }

func (l *switchLog) OnStatement(ev sim.StmtEvent) {
	l.evs = append(l.evs, fmt.Sprintf("stmt p%d %d %s %d @%d", ev.Proc.ID(), ev.Op, ev.Object, ev.Value, ev.Step))
	if ev.Proc != l.last {
		l.handoffs++
		l.last = ev.Proc
	}
}

func (l *switchLog) OnSchedule(ev sim.SchedEvent) {
	by := -1
	if ev.By != nil {
		by = ev.By.ID()
	}
	l.evs = append(l.evs, fmt.Sprintf("%s p%d by p%d @%d", ev.Kind, ev.Proc.ID(), by, ev.Step))
	switch ev.Kind {
	case sim.SchedCrash:
		l.victims++
		if ev.Step != l.lastCrash {
			l.crashSteps++
			l.lastCrash = ev.Step
		}
	case sim.SchedProcDone:
		l.done++
	default:
		// Arrivals, preemptions and invocation ends cost no resume.
	}
}

// checkResumes holds a run's coroutine resumes to what the kernel
// promises. Every handoff resumes the process taking the processor, so
// resumes ≥ handoffs. Beyond handoffs the kernel resumes a coroutine
// only at a step at which the crash injector named victims (the step
// goes back to Run, which may grant the process that decided it again),
// to unwind a crashed victim, and, when an error ends the run, to
// unwind a process still in its program.
func checkResumes(t *testing.T, sys *sim.System, log *switchLog, before int64, runErr error) {
	t.Helper()
	got := sys.Resumes() - before
	hi := log.handoffs + log.crashSteps + log.victims
	if runErr != nil {
		hi += int64(len(sys.Processes())) - log.victims - log.done
	}
	if got < log.handoffs || got > hi {
		t.Fatalf("%d coroutine resumes for %d statements, %d handoffs, %d victims at %d steps, want %d to %d",
			got, sys.Steps(), log.handoffs, log.victims, log.crashSteps, log.handoffs, hi)
	}
}

// TestCoroutineSwitchesFollowHandoffs checks that the kernel resumes a
// process coroutine only to hand it the processor, to finish a step at
// which the crash injector named victims, or to unwind a coroutine
// (checkResumes). A completed crash-free run resumes exactly once per
// handoff: Run takes each process's first yield without resuming it,
// and a process that keeps the processor continues without a switch,
// deciding in place, crash poll included, even while an injector is
// armed. Under its seeded random picks the lock-based run starves,
// spinning its high-priority process through the whole step budget.
func TestCoroutineSwitchesFollowHandoffs(t *testing.T) {
	soak, soakSched := artifact.SoakMeta(7, 7^0x5deece66d, 4, 2)
	cases := []struct {
		name     string
		meta     artifact.Meta
		chooser  func() sim.Chooser
		starving bool
		crashing bool
	}{
		{"lockcounter", artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000},
			func() sim.Chooser { return sched.NewUniform(3) }, true, false},
		{"unicons", artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 8},
			func() sim.Chooser { return sched.NewUniform(1) }, false, false},
		{"lockcounter/random-crash", artifact.Meta{Workload: "lockcounter", N: 3, V: 2, Quantum: 2, MaxSteps: 2000},
			func() sim.Chooser { return sched.NewRandomCrash(sched.NewUniform(1), 5, 1, 0.05) }, true, true},
		{"unicons/random-crash", artifact.Meta{Workload: "unicons", N: 4, V: 1, Quantum: 8},
			func() sim.Chooser { return sched.NewRandomCrash(sched.NewUniform(2), 3, 2, 0.1) }, false, true},
		{"soakmix/random-crash", soak,
			func() sim.Chooser {
				return sched.NewRandomCrash(sched.NewUniform(soakSched.Seed), soakSched.CrashSeed, soakSched.MaxCrashes, 0.05)
			}, false, true},
		{"unicons/planned-crash", artifact.Meta{Workload: "unicons", N: 4, V: 2, Quantum: 2},
			func() sim.Chooser {
				return sched.NewCrash(sched.NewUniform(3), sched.CrashPoint{Proc: 1, Step: 5}, sched.CrashPoint{Proc: 2, Step: 5})
			}, false, true},
		{"multicons/planned-crash", artifact.Meta{Workload: "multicons", P: 2, M: 2, V: 2, Quantum: 4, MaxSteps: 1 << 14},
			func() sim.Chooser { return sched.NewCrash(sched.NewUniform(4), sched.CrashPoint{Proc: 0, Step: 7}) }, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &switchLog{lastCrash: -1}
			sys, _, err := artifact.Build(tc.meta, tc.chooser(), log)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			runErr := sys.Run()
			if starved := errors.Is(runErr, sim.ErrStepLimit); starved != tc.starving || (!starved && runErr != nil) {
				t.Fatalf("Run = %v, want starving %v", runErr, tc.starving)
			}
			if crashed := log.victims > 0; crashed != tc.crashing {
				t.Fatalf("%d processes crashed, want crashes %v", log.victims, tc.crashing)
			}
			checkResumes(t, sys, log, 0, runErr)
			t.Logf("%d statements, %d handoffs, %d victims at %d steps, %d resumes",
				sys.Steps(), log.handoffs, log.victims, log.crashSteps, sys.Resumes())
		})
	}
}

// relaySystem is the crash-step rows' workload: n processes on one
// processor at priorities 1..v, each running invs invocations that read
// a shared register, write it incremented and take one local
// statement. Its reset hook restores the register, so the system is
// reusable.
func relaySystem(cfg sim.Config, n, v, invs int) *sim.System {
	sys := sim.New(cfg)
	r := mem.NewReg("relay")
	for i := 0; i < n; i++ {
		p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%v})
		for j := 0; j < invs; j++ {
			p.AddInvocation(func(c *sim.Ctx) {
				c.Write(r, c.Read(r)+1)
				c.Local(1)
			})
		}
	}
	sys.OnReset(r.Reset)
	return sys
}

// rowCrasher is a crash-step row's injector. At the first decision at
// or after step from that follows a statement of a live process — the
// decider, which polls the injector on its own coroutine — it crashes
// the victims pick names, once. Picks come from a seeded random
// chooser.
type rowCrasher struct {
	seed    int64
	inner   *sched.Uniform
	log     *switchLog
	from    int64
	pick    func(d sim.Decision, decider *sim.Process) []*sim.Process
	firedAt int64
	fired   []*sim.Process
}

func (c *rowCrasher) rearm() {
	c.inner = sched.NewUniform(c.seed)
	c.firedAt, c.fired = -1, nil
}

func (c *rowCrasher) Pick(d sim.Decision) int { return c.inner.Pick(d) }

func (c *rowCrasher) Crashes(d sim.Decision) []*sim.Process {
	decider := c.log.last
	if c.firedAt >= 0 || d.Step < c.from || decider == nil || !decider.Live() {
		return nil
	}
	vs := c.pick(d, decider)
	if len(vs) > 0 {
		c.firedAt, c.fired = d.Step, slices.Clone(vs)
	}
	return vs
}

// liveOther returns the lowest-ID live process other than not that ok
// accepts, or nil.
func liveOther(d sim.Decision, not *sim.Process, ok func(p *sim.Process) bool) *sim.Process {
	for _, p := range d.Procs {
		if p != not && p.Live() && ok(p) {
			return p
		}
	}
	return nil
}

// one wraps a possibly nil victim as a victim list.
func one(p *sim.Process) []*sim.Process {
	if p == nil {
		return nil
	}
	return []*sim.Process{p}
}

// TestCrashStepVictims crashes each kind of victim at a step its
// decider polls on its own coroutine, where the step goes back to Run:
// the decider itself, a process parked mid-invocation, a thinking
// process between invocations, a process never yet granted, two victims
// at once, and victims at a step whose decision ends the run, by the
// step limit (with survivors, and with none left) and by a watchdog
// abort. Each row's run must crash exactly its victims, end as the row
// says and keep checkResumes' bound, and a pooled Reset + Run of the
// row must then reproduce the fresh build's run event for event, as
// TestAbortedRunsLeaveNoTrace requires of aborted runs.
func TestCrashStepVictims(t *testing.T) {
	mid := func(p *sim.Process) bool { return p.InflightStmts() > 0 }
	between := func(p *sim.Process) bool { return p.InflightStmts() == 0 && p.CompletedInvocations() > 0 }
	unstarted := func(p *sim.Process) bool { return p.StmtsTotal() == 0 }
	all := func(d sim.Decision, _ *sim.Process) []*sim.Process {
		var vs []*sim.Process
		for _, p := range d.Procs {
			if p.Live() {
				vs = append(vs, p)
			}
		}
		return vs
	}
	cases := []struct {
		name     string
		cfg      sim.Config
		n, v     int
		from     int64
		pick     func(d sim.Decision, decider *sim.Process) []*sim.Process
		watchdog bool
		want     error // Run's error
		ends     bool  // the crash step's decision ends the run
	}{
		{name: "decider", cfg: sim.Config{Quantum: 1}, n: 3, v: 1, from: 4,
			pick: func(_ sim.Decision, dec *sim.Process) []*sim.Process { return one(dec) }},
		{name: "parked mid-invocation", cfg: sim.Config{Quantum: 1}, n: 3, v: 1, from: 4,
			pick: func(d sim.Decision, dec *sim.Process) []*sim.Process { return one(liveOther(d, dec, mid)) }},
		{name: "thinking between invocations", cfg: sim.Config{Quantum: 1}, n: 3, v: 2, from: 4,
			pick: func(d sim.Decision, dec *sim.Process) []*sim.Process { return one(liveOther(d, dec, between)) }},
		{name: "never granted", cfg: sim.Config{Quantum: 1}, n: 4, v: 1, from: 2,
			pick: func(d sim.Decision, dec *sim.Process) []*sim.Process { return one(liveOther(d, dec, unstarted)) }},
		{name: "two victims", cfg: sim.Config{Quantum: 1}, n: 3, v: 1, from: 4,
			pick: func(d sim.Decision, dec *sim.Process) []*sim.Process {
				if p := liveOther(d, dec, mid); p != nil {
					return []*sim.Process{dec, p}
				}
				return nil
			}},
		{name: "step limit", cfg: sim.Config{Quantum: 2, MaxSteps: 20}, n: 3, v: 2, from: 20,
			pick: func(_ sim.Decision, dec *sim.Process) []*sim.Process { return one(dec) },
			want: sim.ErrStepLimit, ends: true},
		{name: "step limit, no survivor", cfg: sim.Config{Quantum: 2, MaxSteps: 20}, n: 3, v: 2, from: 20,
			pick: all, ends: true},
		{name: "watchdog abort", cfg: sim.Config{Quantum: 0}, n: 4, v: 1, from: 3, watchdog: true,
			pick: func(_ sim.Decision, dec *sim.Process) []*sim.Process { return one(dec) },
			want: sim.ErrPickAbort, ends: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &switchLog{lastCrash: -1}
			cr := &rowCrasher{seed: 11, log: log, from: tc.from, pick: tc.pick}
			cr.rearm()
			var ch sim.Chooser = cr
			var wd *sched.Watchdog
			if tc.watchdog {
				wd = &sched.Watchdog{Inner: cr, Stop: func() bool { return cr.firedAt >= 0 }, CheckEvery: 1}
				ch = wd
			}
			cfg := tc.cfg
			cfg.Processors, cfg.Chooser, cfg.Observer = 1, ch, log
			sys := relaySystem(cfg, tc.n, tc.v, 3)
			defer sys.Close()

			run := func() ([]string, error) {
				log.reset()
				cr.rearm()
				if wd != nil {
					wd.Rearm(cr)
				}
				before := sys.Resumes()
				err := sys.Run()
				if !errors.Is(err, tc.want) {
					t.Fatalf("Run = %v, want %v", err, tc.want)
				}
				if cr.firedAt < 0 {
					t.Fatalf("no victim to crash at a step from %d", tc.from)
				}
				for _, v := range cr.fired {
					if !v.Crashed() {
						t.Fatalf("victim %s did not crash", v.Name())
					}
				}
				if got := int64(sys.CrashedCount()); got != int64(len(cr.fired)) || got != log.victims {
					t.Fatalf("%d processes crashed and %d crash events, want the %d victims", got, log.victims, len(cr.fired))
				}
				if ends := sys.Steps() == cr.firedAt; ends != tc.ends {
					t.Fatalf("run ended at step %d, crash at step %d: want the crash step to end it %v", sys.Steps(), cr.firedAt, tc.ends)
				}
				checkResumes(t, sys, log, before, err)
				return slices.Clone(log.evs), err
			}
			ref, refErr := run()
			sys.Reset()
			got, err := run()
			if i := slices.Compare(got, ref); i != 0 || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("pooled rerun departs from the fresh build's run: %d events and Run = %v, want %d events and %v\ngot  %q\nwant %q",
					len(got), err, len(ref), refErr, got, ref)
			}
			t.Logf("crashed %d at step %d of %d; %d handoffs, %d resumes over both runs",
				len(cr.fired), cr.firedAt, sys.Steps(), log.handoffs, sys.Resumes())
		})
	}
}
