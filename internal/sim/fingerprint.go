package sim

import "repro/internal/mem"

// Fingerprint returns a deterministic hash of the complete observable
// system state: shared memory, each process's control point, and the
// scheduler's quantum bookkeeping. Two runs of the same workload whose
// fingerprints are equal at a decision point have identical futures for
// identical remaining decisions, so an explorer may soundly prune one
// in favor of the other.
//
// The hash is maintained incrementally as two XOR accumulators — the
// memory fingerprint (updated by the Ctx accessors on every mutating
// access) and the process fingerprint (per-process contributions,
// domain-separated by process id, recomputed lazily for processes the
// kernel marked dirty since the last call). XOR composition makes each
// delta O(1): an access changes one object's StateHash term and at most
// two processes' contributions, never the whole system.
//
// The components, all derived from deterministic counters (never wall
// clock, map order, or pointer identity):
//
//   - the memory fingerprint (XOR of every touched object's StateHash —
//     equal memory states hash equally regardless of the access order
//     that produced them);
//   - per process: lifecycle state, priority, invocation index,
//     statements within the current invocation, total statements, and
//     the observation hash of every value it has read — the stand-in
//     for the process's opaque local state, sound because invocation
//     bodies are deterministic functions of what they read;
//   - per process, the scheduler state that steers future grants:
//     quantum protection, statements since resume while protected, and
//     whether the process holds its priority level's quantum slot.
//     With Quantum == 0 protection cannot arise, so holder identity and
//     resume counters are irrelevant to the future and excluded.
//
// Diagnostic statistics that no scheduling rule or explorer verdict
// reads (Process.Preemptions, Process.MaxInvStmts of completed
// invocations) are deliberately excluded: including them would split
// states that are behaviorally identical.
//
// The upkeep is kept by default, since code may fingerprint a system
// from a chooser or after Run returns. An owner that knows nothing
// reads it declines it with SkipFingerprint; Fingerprint then panics
// rather than return a stale value.
func (s *System) Fingerprint() uint64 {
	s.requireFingerprint()
	for _, p := range s.procs {
		if !p.fpDirty {
			continue
		}
		h := s.procContribution(p)
		s.procFP ^= p.fpCache ^ h
		p.fpCache = h
		p.fpDirty = false
	}
	return mem.Mix(mem.Mix(fingerprintSeed, s.memFP), s.procFP)
}

// procContribution hashes one process's fingerprint component. The
// leading Mix over the process id domain-separates contributions so the
// XOR in Fingerprint cannot cancel identical states of distinct
// processes.
func (s *System) procContribution(p *Process) uint64 {
	h := mem.Mix(fingerprintSeed, uint64(p.id)+1)
	h = mem.Mix(h, uint64(p.state))
	h = mem.Mix(h, uint64(p.pri))
	h = mem.Mix(h, uint64(p.invIndex))
	h = mem.Mix(h, uint64(p.stmtsThisInv))
	h = mem.Mix(h, uint64(p.stmtsTotal))
	h = mem.Mix(h, p.obsHash)
	if s.cfg.Quantum > 0 {
		sched := uint64(0)
		if p.protected {
			sched = 1 | uint64(p.sinceResume)<<2
		}
		if s.holder(p.processor, p.pri) == p {
			sched |= 2
		}
		h = mem.Mix(h, sched)
	}
	return h
}

// MemFingerprint returns the memory-substrate component of the system
// fingerprint alone: the XOR of every touched shared object's
// StateHash (registers, CAS words, and consensus decision state). Like
// Fingerprint, it panics after SkipFingerprint.
func (s *System) MemFingerprint() uint64 {
	s.requireFingerprint()
	return s.memFP
}

// SkipFingerprint is the owner's declaration that nothing reads the
// system's fingerprint, neither a chooser nor code after Run: from then
// on the kernel keeps neither the observation hashes nor the memory
// state deltas behind it, and Fingerprint and MemFingerprint panic.
// Declare it once, before the first Run; it lasts across Reset. The
// explorers in internal/check decline it unless they prune by
// fingerprint, and artifact.Replay always does.
func (s *System) SkipFingerprint() { s.noFingerprint = true }

func (s *System) requireFingerprint() {
	if s.noFingerprint {
		panic("sim: fingerprint read on a system whose owner declined its upkeep (SkipFingerprint)")
	}
}

// fingerprintSeed domain-separates system fingerprints from raw object
// ids.
const fingerprintSeed uint64 = 0x9e3779b97f4a7c15
