package sched

import "repro/internal/sim"

// Watchdog wraps a chooser with a cooperative stop check: every
// CheckEvery decisions it consults Stop, and once Stop reports true the
// run is cut off by returning sim.PickAbort from every subsequent Pick
// (System.Run then returns sim.ErrPickAbort). It is the mechanism
// behind per-replay deadlines — a stuck or pathologically slow schedule
// becomes a recorded timeout instead of a hang — while keeping the
// clock itself out of this package: Stop is supplied by the caller
// (internal/check and internal/campaign arm it with a wall-clock
// deadline at their own annotated sites), so Watchdog is a
// deterministic function of its inputs.
//
// Watchdog forwards the sim.Crasher protocol to its inner chooser, so
// crash injection keeps working under a deadline.
type Watchdog struct {
	// Inner is the wrapped chooser.
	Inner sim.Chooser
	// Stop reports whether the run must be cut off. It is polled every
	// CheckEvery decisions, so a fired deadline is honored within that
	// many statements.
	Stop func() bool
	// CheckEvery is the decision interval between Stop polls
	// (0 = 64). 1 polls at every decision.
	CheckEvery int
	// Fired reports that Stop cut this run off. Cleared by Rearm.
	Fired bool

	sinceCheck int
}

// Rearm clears the fired state for the next run, reusing the wrapper.
func (w *Watchdog) Rearm(inner sim.Chooser) {
	w.Inner = inner
	w.Fired = false
	w.sinceCheck = 0
}

func (w *Watchdog) checkEvery() int {
	if w.CheckEvery <= 0 {
		return 64
	}
	return w.CheckEvery
}

// Pick implements sim.Chooser.
func (w *Watchdog) Pick(d sim.Decision) int {
	if w.Fired {
		return sim.PickAbort
	}
	if w.sinceCheck++; w.sinceCheck >= w.checkEvery() {
		w.sinceCheck = 0
		if w.Stop != nil && w.Stop() {
			w.Fired = true
			return sim.PickAbort
		}
	}
	return w.Inner.Pick(d)
}

// ReadsSince reports whether the inner chooser reads Decision.Since.
func (w *Watchdog) ReadsSince() bool { return sim.ReadsSince(w.Inner) }

// Crashes implements sim.Crasher by delegation, so a watchdog-wrapped
// crash injector still fires.
func (w *Watchdog) Crashes(d sim.Decision) []*sim.Process {
	if cr, ok := w.Inner.(sim.Crasher); ok {
		return cr.Crashes(d)
	}
	return nil
}

// CrashesArmed reports whether the inner chooser can inject faults (see
// sim.Config.Chooser's crash-arming protocol).
func (w *Watchdog) CrashesArmed() bool {
	cr, ok := w.Inner.(sim.Crasher)
	if !ok {
		return false
	}
	if ca, ok := cr.(interface{ CrashesArmed() bool }); ok {
		return ca.CrashesArmed()
	}
	return true
}
