package sched

import "repro/internal/sim"

// CrashPoint plans one crash-stop fault: process Proc is halted at the
// first scheduling step at or after global statement Step.
type CrashPoint struct {
	// Proc is the ID of the process to crash.
	Proc int
	// Step is the earliest global statement count at which the crash
	// fires (0 = before the first statement).
	Step int64
}

// Crash wraps an inner chooser and injects a fixed plan of crash-stop
// faults, implementing sim.Crasher. Scheduling decisions are delegated
// to Inner untouched, so any chooser — including the exhaustive
// explorer's replay scripts — can be combined with deterministic
// crashes.
type Crash struct {
	// Inner resolves scheduling decisions.
	Inner sim.Chooser
	// Plan holds the crashes to inject; each entry fires at most once.
	Plan []CrashPoint

	fired []bool
}

// NewCrash returns a crash-injecting chooser wrapping inner.
func NewCrash(inner sim.Chooser, plan ...CrashPoint) *Crash {
	return &Crash{Inner: inner, Plan: plan}
}

// Pick implements sim.Chooser by delegating to Inner.
func (c *Crash) Pick(d sim.Decision) int { return c.Inner.Pick(d) }

// ReadsSince reports whether Inner reads Decision.Since.
func (c *Crash) ReadsSince() bool { return sim.ReadsSince(c.Inner) }

// Reset rearms every planned crash for a pooled rerun
// (sim.System.OnReset hooks). The plan itself is immutable.
func (c *Crash) Reset() {
	clear(c.fired)
}

// Crashes implements sim.Crasher: it returns every planned victim whose
// step has been reached and which has not fired yet.
func (c *Crash) Crashes(d sim.Decision) []*sim.Process {
	if c.fired == nil {
		c.fired = make([]bool, len(c.Plan))
	}
	var out []*sim.Process
	for i, pt := range c.Plan {
		if c.fired[i] || d.Step < pt.Step || pt.Proc < 0 || pt.Proc >= len(d.Procs) {
			continue
		}
		c.fired[i] = true
		out = append(out, d.Procs[pt.Proc])
	}
	return out
}

// RandomCrash wraps an inner chooser and injects seeded pseudo-random
// crash-stop faults: at every scheduling step, with probability Prob,
// one uniformly chosen live process is crashed, until MaxCrashes
// processes have been crashed. The same (inner chooser, seed) pair
// reproduces the same crash pattern, so fuzzing failures replay.
type RandomCrash struct {
	// Inner resolves scheduling decisions.
	Inner sim.Chooser
	// MaxCrashes caps the number of crashes injected (the adversary's
	// budget k; wait-freedom is only meaningful for k < N).
	MaxCrashes int
	// Prob is the per-step crash probability (0 < Prob ≤ 1).
	Prob float64
	// Injected counts crashes injected so far.
	Injected int

	rng *Rand
}

// DefaultCrashProb is the per-step crash probability used when
// NewRandomCrash is asked for a default (prob ≤ 0): crashes land within
// the first few dozen scheduling steps, early enough to overlap the
// victims' invocations.
const DefaultCrashProb = 0.02

// NewRandomCrash returns a seeded random crash injector wrapping inner.
// prob ≤ 0 selects DefaultCrashProb.
func NewRandomCrash(inner sim.Chooser, seed int64, maxCrashes int, prob float64) *RandomCrash {
	if prob <= 0 {
		prob = DefaultCrashProb
	}
	return &RandomCrash{
		Inner:      inner,
		MaxCrashes: maxCrashes,
		Prob:       prob,
		rng:        NewRand(seed),
	}
}

// Pick implements sim.Chooser by delegating to Inner.
func (c *RandomCrash) Pick(d sim.Decision) int { return c.Inner.Pick(d) }

// ReadsSince reports whether Inner reads Decision.Since.
func (c *RandomCrash) ReadsSince() bool { return sim.ReadsSince(c.Inner) }

// Crashes implements sim.Crasher.
func (c *RandomCrash) Crashes(d sim.Decision) []*sim.Process {
	if c.Injected >= c.MaxCrashes || c.rng.Float64() >= c.Prob {
		return nil
	}
	var live []*sim.Process
	for _, p := range d.Procs {
		if p.Live() {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	c.Injected++
	return []*sim.Process{live[c.rng.IntN(len(live))]}
}
