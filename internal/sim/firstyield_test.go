package sim_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sim"
)

// event is one statement or scheduling event: exactly one of stmt and
// sched is set.
type event struct {
	stmt  sim.StmtEvent
	sched sim.SchedEvent
}

// eventLog records every statement and scheduling event of a run, in
// order.
type eventLog struct{ evs []event }

func (l *eventLog) OnStatement(ev sim.StmtEvent) { l.evs = append(l.evs, event{stmt: ev}) }
func (l *eventLog) OnSchedule(ev sim.SchedEvent) { l.evs = append(l.evs, event{sched: ev}) }

// replayPicks picks uniformly from a seeded stream and records its
// picks on the first run, replays them on later runs, and returns
// PickAbort at decision abortAt (never, when negative).
type replayPicks struct {
	rng     *rand.Rand
	picks   []int
	n       int
	abortAt int
}

func (r *replayPicks) Pick(d sim.Decision) int {
	i := r.n
	r.n++
	if i == r.abortAt {
		return sim.PickAbort
	}
	if i == len(r.picks) {
		r.picks = append(r.picks, r.rng.IntN(len(d.Candidates)))
	}
	return r.picks[i]
}

// firstDiff returns the index of the first event at which got and want
// differ, or -1 when they are equal.
func firstDiff(got, want []event) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// reclaimOrder reports whether two runs first differ at a known defect
// outside the kernel: the reclaiming C&S inside soakmix ranges over a
// map of Active registers, so at the same step the same process reads
// them in a different order from one run to the next (the reclaiming
// C&S item in ROADMAP.md). Past that point the runs may differ anyway.
func reclaimOrder(got, want []event, i int) bool {
	if i >= len(got) || i >= len(want) {
		return false
	}
	g, w := got[i].stmt, want[i].stmt
	return g.Proc != nil && g.Proc == w.Proc && g.Step == w.Step && g.Op == sim.OpRead && w.Op == sim.OpRead &&
		strings.HasPrefix(g.Object, "active[") && strings.HasPrefix(w.Object, "active[")
}

// abortPoints returns the decision indices a reference run of n
// decisions is aborted at: every one of the first 64, where processes
// may still be fresh, then evenly spaced ones, about 200 more. That
// bounds the test's cost on a long reference: multicons's two
// processors make a decision at almost every statement, and every
// abort costs a full rerun.
func abortPoints(n int) []int {
	var ks []int
	stride := max(1, (n-64)/192)
	for k := 0; k < n; {
		ks = append(ks, k)
		if k < 64 {
			k++
		} else {
			k += stride
		}
	}
	return ks
}

// TestAbortedRunsLeaveNoTrace checks that a run aborted at any decision
// leaves every coroutine where Reset expects it. Run takes each
// process's first yield without resuming it, and abortAll skips the
// processes never granted, so a run aborted at decision k leaves some
// coroutines unstarted or at their top-of-loop park and others parked
// mid-invocation. For every registered workload on one pooled system,
// a reference run is aborted at each of its decision indices in turn
// (abortPoints), and the rerun after each abort must reproduce the
// reference run's statement and scheduling events, outcome and
// fingerprint exactly. The one exception is a rerun that first departs
// from the reference at soakmix's map-ordered reclaim scan
// (reclaimOrder), which is not compared further.
func TestAbortedRunsLeaveNoTrace(t *testing.T) {
	for _, name := range artifact.Workloads() {
		meta, ok := workloadRows[name]
		if !ok {
			t.Errorf("registered workload %q has no row", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			ch := &replayPicks{rng: rand.New(rand.NewPCG(7, 3)), abortAt: -1}
			log := &eventLog{}
			sys, _, err := artifact.Build(meta, ch, log)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if !sys.Reusable() {
				t.Fatalf("%s: workload system is not reusable", name)
			}
			refErr := sys.Run()
			ref, refFP := slices.Clone(log.evs), sys.Fingerprint()
			if len(ch.picks) == 0 {
				t.Fatalf("%s: the reference run made no decision", name)
			}
			ks := abortPoints(len(ch.picks))
			exact := 0
			for _, k := range ks {
				sys.Reset()
				ch.n, ch.abortAt = 0, k
				if err := sys.Run(); !errors.Is(err, sim.ErrPickAbort) {
					t.Fatalf("abort at decision %d: Run = %v, want ErrPickAbort", k, err)
				}
				sys.Reset()
				ch.n, ch.abortAt = 0, -1
				log.evs = log.evs[:0]
				err := sys.Run()
				if i := firstDiff(log.evs, ref); i >= 0 {
					if reclaimOrder(log.evs, ref, i) {
						continue
					}
					t.Fatalf("rerun after an abort at decision %d departs from the reference at event %d of %d (got %d): got %+v, want %+v",
						k, i, len(ref), len(log.evs), eventAt(log.evs, i), eventAt(ref, i))
				}
				exact++
				if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
					t.Fatalf("rerun after an abort at decision %d: Run = %v, want %v", k, err, refErr)
				}
				if fp := sys.Fingerprint(); fp != refFP {
					t.Fatalf("rerun after an abort at decision %d: fingerprint %#x, want %#x", k, fp, refFP)
				}
			}
			t.Logf("%d decisions, %d events, run error %v; %d of %d reruns compared exactly",
				len(ch.picks), len(ref), refErr, exact, len(ks))
		})
	}
}

// eventAt returns evs[i], or the zero event past its end.
func eventAt(evs []event, i int) event {
	if i < len(evs) {
		return evs[i]
	}
	return event{}
}
