package sim_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
	"repro/internal/sim"
)

// accessLog rebuilds from the event stream the access log the kernel
// keeps for Decision.Since: one entry per statement, Global for an
// arrival (its SchedArrive precedes the statement) and for a statement
// that ends an invocation (its SchedInvEnd follows), and one Global
// entry per crash.
type accessLog struct {
	all     []sim.Access
	arrived bool
}

func (l *accessLog) OnStatement(ev sim.StmtEvent) {
	l.all = append(l.all, sim.Access{Proc: ev.Proc.ID(), Processor: ev.Proc.Processor(), Fp: ev.Fp, Global: l.arrived})
	l.arrived = false
}

func (l *accessLog) OnSchedule(ev sim.SchedEvent) {
	switch ev.Kind {
	case sim.SchedArrive:
		l.arrived = true
	case sim.SchedInvEnd:
		l.all[len(l.all)-1].Global = true
	case sim.SchedCrash:
		l.all = append(l.all, sim.Access{Proc: ev.Proc.ID(), Processor: ev.Proc.Processor(), Global: true})
	default:
		// A preemption adds no access, and a program's end follows the
		// invocation end that already marked its last statement.
	}
}

// TestSinceLogsEveryAccess pins the access log's default: a chooser
// without a ReadsSince method, here a sim.ChooserFunc, receives in
// Since every access since the previous Pick, crashes included, and a
// chooser that reports false receives none and runs the same schedule.
func TestSinceLogsEveryAccess(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 2, Quantum: 2}
	for seed := uint64(1); seed <= 4; seed++ {
		log := &accessLog{}
		seen, picks := 0, 0
		rng := rand.New(rand.NewPCG(seed, 2))
		var taken []int
		var steps []int64
		pick := sim.ChooserFunc(func(d sim.Decision) int {
			if want := log.all[seen:]; !slices.Equal(d.Since, want) {
				t.Fatalf("seed %d, step %d: Since = %v, want %v", seed, d.Step, d.Since, want)
			}
			seen = len(log.all)
			picks++
			i := rng.IntN(len(d.Candidates))
			taken = append(taken, i)
			steps = append(steps, d.Step)
			return i
		})
		crash := sched.NewCrash(pick, sched.CrashPoint{Proc: int(seed % 3), Step: int64(2 + seed)})
		sys, _, err := artifact.Build(meta, crash, log)
		if err != nil {
			t.Fatal(err)
		}
		_ = sys.Run()
		crashed := sys.CrashedCount()
		sys.Close()
		if picks == 0 || crashed == 0 {
			t.Fatalf("seed %d: %d picks, %d crashes; the check ran vacuously", seed, picks, crashed)
		}

		// The same schedule under a chooser that reads no log.
		script := &sched.Script{Decisions: taken}
		var blindSteps []int64
		blind := sim.ChooserFunc(func(d sim.Decision) int {
			if len(d.Since) != 0 {
				t.Fatalf("seed %d, step %d: Since = %v under a chooser that does not read it", seed, d.Step, d.Since)
			}
			blindSteps = append(blindSteps, d.Step)
			return script.Pick(d)
		})
		sys, _, err = artifact.Build(meta, sched.NewCrash(noLog{blind}, sched.CrashPoint{Proc: int(seed % 3), Step: int64(2 + seed)}), nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = sys.Run()
		sys.Close()
		if !slices.Equal(blindSteps, steps) {
			t.Fatalf("seed %d: decisions at steps %v without the log, %v with it", seed, blindSteps, steps)
		}
	}
}

// noLog wraps a chooser and reports that it reads no access log.
type noLog struct{ sim.Chooser }

func (noLog) ReadsSince() bool { return false }
