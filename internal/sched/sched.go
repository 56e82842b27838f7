// Package sched provides Chooser implementations — scheduling strategies
// — for the internal/sim simulator. The simulator itself enforces the
// paper's Axioms 1–2; choosers decide everything the axioms leave open:
// which processor advances, when thinking processes arrive, which
// equal-priority process receives the next quantum, and when legal
// preemptions actually occur.
//
// The package includes benign strategies (run-to-completion, seeded
// uniform random, rotating round-robin) and hostile ones (maximal legal
// preemption, the quantum-stagger adversary from the paper's Theorem 3
// lower-bound proof).
package sched

import "repro/internal/sim"

// RunToCompletion prefers the process that most recently ran, so each
// invocation completes without same-priority preemption when possible.
// It is the friendliest legal schedule: a sanity baseline under which
// every correct algorithm must succeed trivially.
type RunToCompletion struct {
	last *sim.Process
}

// Pick implements sim.Chooser.
func (c *RunToCompletion) Pick(d sim.Decision) int {
	for i, p := range d.Candidates {
		if p == c.last {
			return i
		}
	}
	c.last = d.Candidates[0]
	return 0
}

// ReadsSince reports that RunToCompletion does not read Decision.Since.
func (*RunToCompletion) ReadsSince() bool { return false }

// Rotate cycles through candidate processes, switching to the next
// distinct process at every legal opportunity. Because the simulator
// only offers legal candidates, Rotate effects a maximally-preempting
// quantum round-robin: every quantum is exactly Q statements.
type Rotate struct {
	lastID int
}

// NewRotate returns a Rotate chooser.
func NewRotate() *Rotate { return &Rotate{lastID: -1} }

// Pick implements sim.Chooser.
func (c *Rotate) Pick(d sim.Decision) int {
	// Choose the candidate with the smallest ID strictly greater than
	// the last scheduled ID, wrapping around.
	best, bestWrap := -1, -1
	for i, p := range d.Candidates {
		id := p.ID()
		if id > c.lastID && (best == -1 || id < d.Candidates[best].ID()) {
			best = i
		}
		if bestWrap == -1 || id < d.Candidates[bestWrap].ID() {
			bestWrap = i
		}
	}
	if best == -1 {
		best = bestWrap
	}
	c.lastID = d.Candidates[best].ID()
	return best
}

// ReadsSince reports that Rotate does not read Decision.Since.
func (*Rotate) ReadsSince() bool { return false }

// Stagger is the quantum-stagger adversary from the paper's Theorem 3
// lower-bound proof (Sec. 4.1/Appendix A): it aligns processes'
// executions with quantum boundaries at staggered offsets, so that at
// (almost) every instant some process is at a preemption point. Each
// process runs for its offset first, then for Period statements between
// switches; the simulator clips illegal preemptions, so Stagger is
// always legal but maximally misaligned.
type Stagger struct {
	// Period is the statements each process runs per burst after its
	// initial offset (use the quantum Q for exact boundary staggering).
	Period int
	// Phase rotates the offset assignment, letting a battery try
	// different alignments.
	Phase int

	started  map[int]bool
	budgets  map[int]int
	current  int
	lastStep int64
}

// NewStagger returns a stagger adversary with the given burst period and
// alignment phase.
func NewStagger(period, phase int) *Stagger {
	if period < 1 {
		period = 1
	}
	return &Stagger{
		Period:  period,
		Phase:   phase,
		started: make(map[int]bool),
		budgets: make(map[int]int),
		current: -1,
	}
}

// Pick implements sim.Chooser. Burst budgets are charged by the global
// statement clock (Decision.Step deltas), so statements the kernel
// grants without a decision point — e.g. while the current process is
// quantum-protected — are accounted too.
func (s *Stagger) Pick(d sim.Decision) int {
	if s.current >= 0 {
		s.budgets[s.current] -= int(d.Step - s.lastStep)
	}
	s.lastStep = d.Step
	// Continue the current process while its burst budget lasts.
	for i, p := range d.Candidates {
		if p.ID() == s.current && s.budgets[s.current] > 0 {
			return i
		}
	}
	// Otherwise pick the next process round-robin and start its next
	// burst. A process's first burst is its stagger offset:
	// 1 + (ID+Phase) mod Period statements; later bursts are Period.
	best, bestWrap := -1, -1
	for i, p := range d.Candidates {
		id := p.ID()
		if id > s.current && (best == -1 || id < d.Candidates[best].ID()) {
			best = i
		}
		if bestWrap == -1 || id < d.Candidates[bestWrap].ID() {
			bestWrap = i
		}
	}
	if best == -1 {
		best = bestWrap
	}
	p := d.Candidates[best]
	if !s.started[p.ID()] {
		s.started[p.ID()] = true
		s.budgets[p.ID()] = 1 + (p.ID()+s.Phase)%s.Period
	} else {
		s.budgets[p.ID()] = s.Period
	}
	s.current = p.ID()
	return best
}

// ReadsSince reports that Stagger does not read Decision.Since: it
// charges bursts by Decision.Step.
func (*Stagger) ReadsSince() bool { return false }

// Script replays a fixed decision sequence, then falls back to picking
// candidate 0. It records the fan-out of every decision it makes, which
// the exhaustive explorer in internal/check uses to enumerate schedules.
//
// A scripted decision that is out of range for the decision point it
// reaches (which can only happen when the system under replay is not a
// deterministic function of the decision sequence — e.g. a non-reentrant
// builder) is clamped to the last candidate and flagged via Clamped and
// ClampCount. A clamped replay aliases a schedule with an in-range
// decision vector, so explorers skip such runs instead of counting them
// as distinct schedules.
type Script struct {
	// Decisions is the prefix of decisions to replay.
	Decisions []int
	// Fanouts records len(Candidates) at each decision point encountered
	// (including beyond the scripted prefix).
	Fanouts []int
	// Clamped reports whether any scripted decision was out of range and
	// had to be clamped to the last candidate.
	Clamped bool
	// ClampCount counts clamped decisions.
	ClampCount int
	pos        int
}

// Reset rewinds the script for a pooled rerun with a new decision
// prefix, reusing the fan-out buffer. Equivalent to replacing the
// chooser with &Script{Decisions: decisions}.
func (s *Script) Reset(decisions []int) {
	s.Decisions = decisions
	s.Fanouts = s.Fanouts[:0]
	s.Clamped = false
	s.ClampCount = 0
	s.pos = 0
}

// Pick implements sim.Chooser.
func (s *Script) Pick(d sim.Decision) int {
	s.Fanouts = append(s.Fanouts, len(d.Candidates))
	i := 0
	if s.pos < len(s.Decisions) {
		i = s.Decisions[s.pos]
		if i >= len(d.Candidates) {
			i = len(d.Candidates) - 1
			s.Clamped = true
			s.ClampCount++
		}
	}
	s.pos++
	return i
}

// ReadsSince reports that Script does not read Decision.Since.
func (*Script) ReadsSince() bool { return false }

// BudgetedSwitch wraps an inner preference for "keep running the current
// process" but spends a limited budget of deliberate switches at
// positions directed by a schedule word. It is the chooser shape used by
// the bounded-preemption exhaustive explorer: schedules differ only in
// where a bounded number of context switches are placed, which is where
// all the interesting behaviour of quantum-scheduled algorithms lives.
type BudgetedSwitch struct {
	// SwitchAt is the switch word: the directed switches, sorted by
	// decision index, at most one per index. Decisions not in it continue
	// the current process when possible. The chooser only reads it.
	SwitchAt []Switch
	// next is the cursor into SwitchAt: its first switch not yet reached.
	next    int
	current *sim.Process
	// Decision counts decisions seen so far.
	Decision int64
	// Fanouts records len(Candidates) at each decision point.
	Fanouts []int
	// Taken records the choice made at each decision point.
	Taken []int
	// Clamped reports whether any directed switch was out of range for
	// the decision point it reached and was clamped to the last
	// candidate (see Script.Clamped: this aliases another schedule).
	Clamped bool
	// ClampCount counts clamped decisions.
	ClampCount int
	// Prune, if non-nil, is consulted at decision points strictly past
	// the last directed switch — where the rest of the run is a pure
	// default continuation, so a previously visited equal state provably
	// has an equal future. (Before that point the pending switch word,
	// which the state fingerprint cannot see, still steers the run, so
	// pruning there would be unsound.) Returning true aborts the run.
	Prune PruneFunc
	// Budget is the remaining deviation budget reported to Prune.
	Budget int
	// Pruned reports that Prune cut the run (Run returned
	// sim.ErrPickAbort).
	Pruned bool
}

// Switch is one directed switch of a BudgetedSwitch word: at decision
// index At, take candidate Choice.
type Switch struct {
	At     int64
	Choice int
}

// Reset rewinds the chooser for a pooled rerun of switch word word
// (sorted by decision index) with a new deviation budget, reusing the
// record buffers, and keeps Prune as configured. Equivalent to
// replacing the chooser with &BudgetedSwitch{SwitchAt: word, Budget:
// budget, Prune: ...}.
func (b *BudgetedSwitch) Reset(word []Switch, budget int) {
	b.SwitchAt = word
	b.next = 0
	b.current = nil
	b.Decision = 0
	b.Fanouts = b.Fanouts[:0]
	b.Taken = b.Taken[:0]
	b.Clamped = false
	b.ClampCount = 0
	b.Budget = budget
	b.Pruned = false
}

// Pick implements sim.Chooser.
func (b *BudgetedSwitch) Pick(d sim.Decision) int {
	idx := b.Decision
	b.Decision++
	b.Fanouts = append(b.Fanouts, len(d.Candidates))
	var choice int
	switch {
	case b.next < len(b.SwitchAt) && b.SwitchAt[b.next].At == idx:
		choice = b.SwitchAt[b.next].Choice
		b.next++
		if choice >= len(d.Candidates) {
			choice = len(d.Candidates) - 1
			b.Clamped = true
			b.ClampCount++
		}
	default:
		// Every switch sits at a decision already made once the cursor
		// has passed them all.
		if b.Prune != nil && b.next == len(b.SwitchAt) {
			extra := ^uint64(0)
			if b.current != nil {
				extra = uint64(b.current.ID())
			}
			if b.Prune(PruneInfo{Decision: d, Taken: b.Taken, Budget: b.Budget, Extra: extra}) {
				b.Pruned = true
				return sim.PickAbort
			}
		}
		for i, p := range d.Candidates {
			if p == b.current {
				choice = i
				break
			}
		}
	}
	b.current = d.Candidates[choice]
	b.Taken = append(b.Taken, choice)
	return choice
}

// ReadsSince reports that BudgetedSwitch does not read Decision.Since,
// so its Prune hook sees an empty one.
func (*BudgetedSwitch) ReadsSince() bool { return false }
