package sched

import (
	"repro/internal/sim"
)

// Record wraps an inner chooser and records every scheduling decision it
// makes (as candidate indices) and every crash-stop fault it fires (as
// replayable CrashPoints). The recorded vector replayed through a Script
// — with the recorded crash points replayed through Crash — reproduces
// the identical run for any system that is a deterministic function of
// its decision sequence. This is how seeded-random counterexamples are
// normalized into shrinkable, artifact-grade decision vectors.
type Record struct {
	// Inner resolves decisions (and, if it implements sim.Crasher,
	// crash injection).
	Inner sim.Chooser
	// Taken accumulates the candidate index chosen at each decision
	// point, in order.
	Taken []int
	// Fanouts accumulates len(Candidates) at each decision point.
	Fanouts []int
	// Fired accumulates every crash fault Inner injected, as
	// deterministic replay points (victim ID, global statement count).
	Fired []CrashPoint
}

// NewRecord returns a recording wrapper around inner.
func NewRecord(inner sim.Chooser) *Record { return &Record{Inner: inner} }

// Reset rewinds the recorder around a (possibly new) inner chooser for
// a pooled rerun, reusing the record buffers. Equivalent to replacing
// the recorder with NewRecord(inner).
func (r *Record) Reset(inner sim.Chooser) {
	r.Inner = inner
	r.Taken = r.Taken[:0]
	r.Fanouts = r.Fanouts[:0]
	r.Fired = r.Fired[:0]
}

// CrashesArmed reports whether Inner can actually inject faults: the
// kernel skips the per-step Crashes call entirely when it cannot, and
// Record itself only delegates.
func (r *Record) CrashesArmed() bool {
	if ca, ok := r.Inner.(interface{ CrashesArmed() bool }); ok {
		return ca.CrashesArmed()
	}
	_, ok := r.Inner.(sim.Crasher)
	return ok
}

// ReadsSince reports whether Inner reads Decision.Since; Record itself
// does not.
func (r *Record) ReadsSince() bool { return sim.ReadsSince(r.Inner) }

// Pick implements sim.Chooser, delegating to Inner and recording the
// chosen candidate index.
func (r *Record) Pick(d sim.Decision) int {
	i := r.Inner.Pick(d)
	r.Taken = append(r.Taken, i)
	r.Fanouts = append(r.Fanouts, len(d.Candidates))
	return i
}

// Crashes implements sim.Crasher. If Inner injects faults they are
// recorded as CrashPoints pinned to the current global statement count,
// so a Crash chooser replaying Fired crashes the same victims at the
// same steps. An inner chooser without fault injection yields none.
func (r *Record) Crashes(d sim.Decision) []*sim.Process {
	cr, ok := r.Inner.(sim.Crasher)
	if !ok {
		return nil
	}
	victims := cr.Crashes(d)
	for _, v := range victims {
		r.Fired = append(r.Fired, CrashPoint{Proc: v.ID(), Step: d.Step})
	}
	return victims
}
