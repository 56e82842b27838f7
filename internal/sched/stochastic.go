package sched

import (
	"math/rand/v2"

	"repro/internal/sim"
)

// This file holds the program's one seeded generator (Rand) and the
// stochastic scheduler family behind the "practically wait-free"
// measurement layer: uniform random (Uniform), Markov processor/priority
// walks (Markov), and Aspnes-style noisy scheduling (Noisy). All three
// draw only from a private Rand, so decision streams are pure functions
// of the seed, and every schedule they produce replays exactly from
// (spec, seed) or from a recorded decision trace.

// splitmix64 is the standard seed expander: it turns one 64-bit seed
// into decorrelated stream words for PCG initialization.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is the generator every seeded schedule, crash plan and soak
// derivation draws from: a math/rand/v2 PCG whose two init words are
// splitmix64 of the seed and of the seed plus one. Seeding is those two
// splitmix64 steps, and Reseed rewinds the generator in place, so a
// pooled worker replays seed after seed without allocating.
type Rand struct {
	*rand.Rand
	pcg rand.PCG
}

// NewRand returns a Rand at the start of the stream for seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	r.Rand = rand.New(&r.pcg)
	return r
}

// Reseed rewinds r to the start of the stream for seed; equivalent to
// replacing it with NewRand(seed).
func (r *Rand) Reseed(seed int64) {
	r.pcg.Seed(splitmix64(uint64(seed)), splitmix64(uint64(seed)+1))
}

// Uniform picks uniformly among candidates from a seeded Rand. It is
// the stochastic family's baseline, the scheduler the
// Alistarh–Censor-Hillel–Shavit argument calls "uniform stochastic",
// and the schedule source of Fuzz and soak runs unless a model is
// named.
type Uniform struct {
	rng *Rand
}

// NewUniform returns a Uniform chooser with the given seed.
func NewUniform(seed int64) *Uniform {
	return &Uniform{rng: NewRand(seed)}
}

// Pick implements sim.Chooser.
func (u *Uniform) Pick(d sim.Decision) int {
	return u.rng.IntN(len(d.Candidates))
}

// ReadsSince reports that Uniform does not read Decision.Since.
func (*Uniform) ReadsSince() bool { return false }

// Reseed rewinds the stream to the start for seed; equivalent to
// replacing the chooser with NewUniform(seed).
func (u *Uniform) Reseed(seed int64) {
	u.rng.Reseed(seed)
}

// Markov is a Markov-chain processor/priority walk: with probability
// Stay it keeps granting the process it granted last (processor
// affinity — the common case on a real machine, where a context switch
// is the exception), and otherwise it hops to a different candidate
// with probability proportional to PriBias^(priority-1) (PriBias > 1
// models a priority-proportional-share scheduler; PriBias = 1 hops
// uniformly). The stationary behavior interpolates between
// run-to-completion (Stay→1) and uniform random (Stay→0, PriBias=1).
type Markov struct {
	// Stay is the probability of keeping the current process while it
	// remains a legal candidate.
	Stay float64
	// PriBias is the per-priority-level weight base for hops.
	PriBias float64

	rng    *Rand
	lastID int
}

// NewMarkov returns a Markov walk chooser with the given seed, stay
// probability, and priority bias.
func NewMarkov(seed int64, stay, priBias float64) *Markov {
	return &Markov{Stay: stay, PriBias: priBias, rng: NewRand(seed), lastID: -1}
}

// Pick implements sim.Chooser.
func (m *Markov) Pick(d sim.Decision) int {
	cur := -1
	for i, p := range d.Candidates {
		if p.ID() == m.lastID {
			cur = i
			break
		}
	}
	// One draw per decision regardless of whether the current process is
	// still a candidate, so the stream stays aligned across workloads
	// with different candidate patterns.
	stay := m.rng.Float64() < m.Stay
	var idx int
	switch {
	case cur >= 0 && (stay || len(d.Candidates) == 1):
		idx = cur
	default:
		idx = m.hop(d.Candidates, cur)
	}
	m.lastID = d.Candidates[idx].ID()
	return idx
}

// ReadsSince reports that Markov does not read Decision.Since.
func (*Markov) ReadsSince() bool { return false }

// hop draws a candidate other than cur (when possible) with weight
// PriBias^(priority-1).
func (m *Markov) hop(cands []*sim.Process, cur int) int {
	if m.PriBias == 1 {
		// Uniform hop: draw an index among the others directly.
		n := len(cands)
		if cur >= 0 {
			i := m.rng.IntN(n - 1)
			if i >= cur {
				i++
			}
			return i
		}
		return m.rng.IntN(n)
	}
	total := 0.0
	for i, p := range cands {
		if i == cur {
			continue
		}
		total += m.weight(p)
	}
	if total <= 0 {
		if cur >= 0 {
			return cur
		}
		return 0
	}
	x := m.rng.Float64() * total
	for i, p := range cands {
		if i == cur {
			continue
		}
		x -= m.weight(p)
		if x < 0 {
			return i
		}
	}
	// Float roundoff fell off the end: take the last non-cur candidate.
	for i := len(cands) - 1; i >= 0; i-- {
		if i != cur {
			return i
		}
	}
	return 0
}

func (m *Markov) weight(p *sim.Process) float64 {
	w := 1.0
	for k := 1; k < p.Priority(); k++ {
		w *= m.PriBias
	}
	return w
}

// Reseed rewinds the stream and the walk state for seed; equivalent to
// replacing the chooser with NewMarkov(seed, m.Stay, m.PriBias).
func (m *Markov) Reseed(seed int64) {
	m.rng.Reseed(seed)
	m.lastID = -1
}

// Noisy is Aspnes's noisy-scheduling model: an adversarial core
// schedule perturbed by random noise. The core here is the maximally
// preempting round-robin (the Rotate strategy — switch to the next
// distinct process at every legal opportunity), and with probability
// Eps each decision is replaced by a uniform random candidate. The
// adversary observes the schedule as actually executed, so the walk
// state follows the perturbed choice, not the intended one. Eps=0
// degenerates to the pure adversary; Eps=1 to uniform random.
type Noisy struct {
	// Eps is the per-decision perturbation probability.
	Eps float64

	rng    *Rand
	lastID int
}

// NewNoisy returns a noisy-scheduling chooser with the given seed and
// perturbation probability.
func NewNoisy(seed int64, eps float64) *Noisy {
	return &Noisy{Eps: eps, rng: NewRand(seed), lastID: -1}
}

// Pick implements sim.Chooser.
func (n *Noisy) Pick(d sim.Decision) int {
	// One perturbation draw per decision keeps the stream aligned; the
	// uniform draw happens only on perturbed decisions.
	var idx int
	if n.rng.Float64() < n.Eps {
		idx = n.rng.IntN(len(d.Candidates))
	} else {
		idx = rotatePick(d.Candidates, n.lastID)
	}
	n.lastID = d.Candidates[idx].ID()
	return idx
}

// ReadsSince reports that Noisy does not read Decision.Since.
func (*Noisy) ReadsSince() bool { return false }

// rotatePick is the Rotate core: the candidate with the smallest ID
// strictly greater than lastID, wrapping around.
func rotatePick(cands []*sim.Process, lastID int) int {
	best, bestWrap := -1, -1
	for i, p := range cands {
		id := p.ID()
		if id > lastID && (best == -1 || id < cands[best].ID()) {
			best = i
		}
		if bestWrap == -1 || id < cands[bestWrap].ID() {
			bestWrap = i
		}
	}
	if best == -1 {
		best = bestWrap
	}
	return best
}

// Reseed rewinds the stream and the core's walk state for seed;
// equivalent to replacing the chooser with NewNoisy(seed, n.Eps).
func (n *Noisy) Reseed(seed int64) {
	n.rng.Reseed(seed)
	n.lastID = -1
}
