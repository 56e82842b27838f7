// Package repro is a Go reproduction of "Wait-Free Synchronization in
// Multiprogrammed Systems: Integrating Priority-Based and Quantum-Based
// Scheduling" (Anderson & Moir, PODC 1999).
//
// The library has three layers:
//
//  1. A deterministic statement-level simulator of hybrid-scheduled
//     multiprogrammed systems (NewSystem): P processors, processes with
//     priorities, quantum-based scheduling among equal priorities,
//     enforcing the paper's Axioms 1-2 exactly. Scheduling freedom is
//     delegated to pluggable Schedulers, from benign round-robin to the
//     lower-bound stagger adversary.
//
//  2. The paper's algorithms, runnable inside the simulator:
//     NewConsensus (Fig. 3 — constant-time uniprocessor consensus from
//     reads/writes), NewCAS (Fig. 5 — O(V) uniprocessor compare-and-swap
//     from reads/writes), NewMultiConsensus (Fig. 7 — multiprocessor
//     consensus from C-consensus objects), NewFairConsensus (Fig. 9 —
//     constant quantum under fair scheduling), plus wait-free universal
//     objects built on them (NewCounter, NewQueue, NewMultiCounter).
//
//  3. Verification and experiments: exhaustive/budgeted/randomized
//     schedule exploration (Explore*, Fuzz), trace rendering in the
//     style of the paper's Fig. 1-2 (NewTraceRecorder), and the
//     experiment harness regenerating Table 1 and the complexity claims
//     (Table1Sweep, Fig3Scaling, ...). See EXPERIMENTS.md. Violations
//     become replayable repro bundles that shrink to minimal
//     still-failing kernels (LoadArtifact, ReplayArtifact, Shrink).
//
// All shared-memory values are single words (Word); ⊥ is Bottom.
package repro

import (
	"repro/internal/artifact"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/hybridcas"
	"repro/internal/mem"
	"repro/internal/minimize"
	"repro/internal/multicons"
	"repro/internal/qlocal"
	"repro/internal/renaming"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unicons"
	"repro/internal/universal"
)

// Core simulator types.
type (
	// Word is the unit of shared storage.
	Word = mem.Word
	// Reg is a single-word atomic register.
	Reg = mem.Reg
	// ConsObject is a primitive C-consensus object.
	ConsObject = mem.ConsObject
	// System is a configured multiprogrammed system.
	System = sim.System
	// Config parameterizes a System.
	Config = sim.Config
	// ProcSpec describes a process (processor, priority).
	ProcSpec = sim.ProcSpec
	// Process is a simulated process.
	Process = sim.Process
	// Ctx is a process's handle to shared memory inside an invocation.
	Ctx = sim.Ctx
	// Invocation is one object invocation run by a process.
	Invocation = sim.Invocation
	// Scheduler resolves the scheduling freedom Axioms 1-2 leave open.
	Scheduler = sim.Chooser
	// SchedulerFunc adapts a function to the Scheduler interface.
	SchedulerFunc = sim.ChooserFunc
	// Decision is one scheduling decision point.
	Decision = sim.Decision
)

// ErrStepLimit reports that a run exceeded Config.MaxSteps — how
// non-termination (e.g. a blocked lock) manifests in the simulator.
var ErrStepLimit = sim.ErrStepLimit

// Bottom is ⊥, the reserved "no value" word.
const Bottom = mem.Bottom

// Quantum guidance (in atomic statements).
const (
	// MinQuantumConsensus is Theorem 1's bound: Fig. 3 consensus is
	// correct on a hybrid-scheduled uniprocessor when Q ≥ 8.
	MinQuantumConsensus = unicons.MinQuantum
	// MinQuantumCAS is the safety bound for the Fig. 5 C&S object.
	MinQuantumCAS = hybridcas.MinQuantum
	// RecommendedQuantum keeps retry rounds per operation small for the
	// level-local objects and everything built on them.
	RecommendedQuantum = qlocal.RecommendedQuantum
)

// NewSystem returns an empty hybrid-scheduled system.
func NewSystem(cfg Config) *System { return sim.New(cfg) }

// NewReg returns a fresh shared register holding ⊥.
func NewReg(name string) *Reg { return mem.NewReg(name) }

// NewRegInit returns a fresh shared register holding v.
func NewRegInit(name string, v Word) *Reg { return mem.NewRegInit(name, v) }

// NewConsObject returns a primitive C-consensus object (invocations
// beyond the C-th return ⊥).
func NewConsObject(name string, c int) *ConsObject { return mem.NewConsObject(name, c) }

// Schedulers.

// NewRandomScheduler returns a seeded uniform-random scheduler (the
// checker's "uniform" model).
func NewRandomScheduler(seed int64) Scheduler { return sched.NewUniform(seed) }

// NewRotateScheduler returns the maximally-preempting round-robin
// scheduler (every quantum is exactly Q statements).
func NewRotateScheduler() Scheduler { return sched.NewRotate() }

// NewRunToCompletionScheduler returns the friendliest legal scheduler.
func NewRunToCompletionScheduler() Scheduler { return &sched.RunToCompletion{} }

// NewStaggerScheduler returns the Theorem 3 quantum-stagger adversary.
func NewStaggerScheduler(period, phase int) Scheduler { return sched.NewStagger(period, phase) }

// Crash-stop faults.

// Crasher extends Scheduler with crash-stop fault injection: the kernel
// polls Crashes at every scheduling step and permanently halts the
// returned processes. A crashed process is departed, not preempted —
// wait-free algorithms must keep every survivor's step bound intact.
type Crasher = sim.Crasher

// CrashPoint plans one crash-stop fault (process Proc at the first
// scheduling step at or after global statement Step).
type CrashPoint = sched.CrashPoint

// CrashScheduler wraps an inner scheduler with a fixed crash plan.
type CrashScheduler = sched.Crash

// RandomCrashScheduler wraps an inner scheduler with seeded random
// crash-stop faults; its Injected field counts crashes delivered.
type RandomCrashScheduler = sched.RandomCrash

// NewCrashScheduler wraps inner with a deterministic crash plan.
func NewCrashScheduler(inner Scheduler, plan ...CrashPoint) *CrashScheduler {
	return sched.NewCrash(inner, plan...)
}

// NewRandomCrashScheduler wraps inner with seeded random crash-stop
// faults: at each step, with probability prob (≤ 0 selects
// sched.DefaultCrashProb), one uniformly chosen live process crashes,
// up to maxCrashes in total.
func NewRandomCrashScheduler(inner Scheduler, seed int64, maxCrashes int, prob float64) *RandomCrashScheduler {
	return sched.NewRandomCrash(inner, seed, maxCrashes, prob)
}

// Paper algorithms.

// Consensus is the Fig. 3 uniprocessor consensus object (Theorem 1):
// wait-free, constant-time, reads and writes only, any number of
// processes at any priorities on one processor, Q ≥ MinQuantumConsensus.
type Consensus = unicons.Object

// NewConsensus returns a fresh Fig. 3 consensus object.
func NewConsensus(name string) *Consensus { return unicons.New(name) }

// CAS is the Fig. 5 uniprocessor compare-and-swap object (Theorem 2):
// wait-free, O(V) time, reads and writes only.
type CAS = hybridcas.Object

// NewCAS returns a Fig. 5 C&S object for one processor with `levels`
// priority levels, holding initial.
func NewCAS(name string, levels int, initial Word) *CAS {
	return hybridcas.New(name, levels, initial)
}

// NewReclaimingCAS returns a Fig. 5 C&S object, for the procs processes
// with IDs 0..procs-1, that additionally bounds its storage with
// quiescence-floor reclamation (the role the 4N+2-tag recycling of [2]
// plays in the paper; see internal/hybridcas/reclaim.go for the proof,
// guarantees and caveats).
func NewReclaimingCAS(name string, levels, procs int, initial Word, threshold int) *CAS {
	return hybridcas.NewReclaiming(name, levels, procs, initial, threshold)
}

// Renaming (§5 extensions).

// LevelNames assigns one name per priority level (the identifier scheme
// §5 uses to run Fig. 7 under dynamic priorities).
type LevelNames = renaming.LevelNames

// NewLevelNames returns a one-shot level-renaming object for priorities
// 1..v.
func NewLevelNames(name string, v int) *LevelNames { return renaming.NewLevelNames(name, v) }

// LongLivedRenaming lets processes repeatedly acquire and release names
// in 1..renaming.Size, wait-free from reads and writes.
type LongLivedRenaming = renaming.LongLived

// NewLongLivedRenaming returns an empty long-lived renaming object.
func NewLongLivedRenaming(name string) *LongLivedRenaming { return renaming.NewLongLived(name) }

// LevelLocal is the reconstructed quantum-scheduled level-local object
// of [1]: CAS/FetchInc/Store/Load among one priority level's processes,
// single-register reads from other levels.
type LevelLocal = qlocal.Object

// NewLevelLocal returns a level-local object holding initial (≤ 32 bits).
func NewLevelLocal(name string, initial Word) *LevelLocal { return qlocal.New(name, initial) }

// MultiConsensusConfig parameterizes Fig. 7 instances.
type MultiConsensusConfig = multicons.Config

// MultiConsensus is the Fig. 7 multiprocessor consensus algorithm
// (Theorem 4): wait-free consensus for any number of processes on P
// processors from (P+K)-consensus objects, polynomial space and time,
// provided Q meets Table 1's bound.
type MultiConsensus = multicons.Algorithm

// NewMultiConsensus returns a fresh one-shot Fig. 7 instance.
func NewMultiConsensus(cfg MultiConsensusConfig) *MultiConsensus { return multicons.New(cfg) }

// FairConsensus is the Fig. 9 algorithm: constant quantum suffices when
// quanta are allocated fairly.
type FairConsensus = multicons.Fair

// NewFairConsensus returns a fresh Fig. 9 instance for P processors and
// V priority levels using (P+K)-consensus objects.
func NewFairConsensus(name string, p, v, k int) *FairConsensus {
	return multicons.NewFair(name, p, v, k)
}

// Universal objects.

// Counter is a wait-free shared counter for one hybrid-scheduled
// processor, reads and writes only.
type Counter = universal.Counter

// NewCounter returns a counter starting at initial.
func NewCounter(name string, initial Word) *Counter { return universal.NewCounter(name, initial) }

// Queue is a wait-free shared FIFO queue for one hybrid-scheduled
// processor, reads and writes only.
type Queue = universal.Queue

// QueueEmpty is returned by Queue.Deq on an empty queue.
const QueueEmpty = universal.QueueEmpty

// NewQueue returns an empty queue.
func NewQueue(name string) *Queue { return universal.NewQueue(name) }

// MultiCounter is a wait-free counter spanning P processors, built on
// Fig. 7 consensus.
type MultiCounter = universal.MultiCounter

// NewMultiCounter returns a multiprocessor counter starting at initial.
func NewMultiCounter(cfg MultiConsensusConfig, initial Word) *MultiCounter {
	return universal.NewMultiCounter(cfg, initial)
}

// UniversalApply is the sequential specification for custom universal
// objects.
type UniversalApply = universal.Apply

// NewUniversal returns a custom uniprocessor universal object.
func NewUniversal(name string, initial any, apply UniversalApply) *universal.Object {
	return universal.New(name, initial, apply)
}

// Baseline comparators (see internal/baseline).

// LockCounter is the blocking comparator: a counter behind a CAS
// spinlock. It deadlocks under priority inversion, which the wait-free
// objects cannot.
type LockCounter = baseline.LockCounter

// NewLockCounter returns a lock-based counter starting at initial.
func NewLockCounter(name string, initial Word) *LockCounter {
	return baseline.NewLockCounter(name, initial)
}

// NaiveConsensus is the quantum-oblivious comparator: single-register
// adopt, broken under any preemption.
type NaiveConsensus = baseline.Naive

// NewNaiveConsensus returns the naive comparator.
func NewNaiveConsensus(name string) *NaiveConsensus { return baseline.NewNaive(name) }

// Verification.

type (
	// Builder constructs a fresh system plus verifier for exploration.
	Builder = check.Builder
	// Verify checks a completed run's outcome.
	Verify = check.Verify
	// ExploreOptions bounds an exploration; Parallelism selects the
	// worker count (0 = all CPUs, 1 = strict sequential) and Progress
	// receives periodic throughput snapshots.
	ExploreOptions = check.Options
	// ExploreResult summarizes an exploration.
	ExploreResult = check.Result
	// ExploreProgress is one snapshot delivered to the Progress hook.
	ExploreProgress = check.ProgressInfo
)

// ExploreAll exhaustively checks every schedule of the built system.
// All explorers run on a worker pool; the Builder must be reentrant
// (create all state inside the call) — see package check for the
// contract and the determinism guarantee.
func ExploreAll(build Builder, opts ExploreOptions) *ExploreResult {
	return check.ExploreAll(build, opts)
}

// ExploreBudget exhaustively checks every schedule within a context-
// switch deviation budget.
func ExploreBudget(build Builder, budget int, opts ExploreOptions) *ExploreResult {
	return check.ExploreBudget(build, budget, opts)
}

// Fuzz checks many seeded pseudo-random schedules.
func Fuzz(build Builder, seeds int, opts ExploreOptions) *ExploreResult {
	return check.Fuzz(build, seeds, opts)
}

// Counterexample forensics (see DESIGN.md §8 and README "Debugging a
// violation"): violations become versioned JSON repro bundles that
// replay deterministically and shrink to minimal still-failing kernels.

type (
	// Artifact is a replayable repro bundle: a registered workload name,
	// its scalar config and crash plan, the schedule (explicit decision
	// vector or seeds), and the recorded error and timeline.
	Artifact = artifact.Bundle
	// ArtifactMeta names a registered workload plus its configuration.
	ArtifactMeta = artifact.Meta
	// ArtifactSched is a bundle's schedule: script or random mode.
	ArtifactSched = artifact.Sched
	// ReplayOptions controls a bundle replay.
	ReplayOptions = artifact.ReplayOptions
	// ReplayReport is the outcome of a fresh bundle replay.
	ReplayReport = artifact.Report
	// ShrinkOptions bounds minimization and pins the failure kind.
	ShrinkOptions = minimize.Options
	// ShrinkStats summarizes a minimization run.
	ShrinkStats = minimize.Stats
)

// LoadArtifact reads a repro bundle from disk (rejecting unknown
// versions and workloads).
func LoadArtifact(path string) (*Artifact, error) { return artifact.Load(path) }

// ReplayArtifact deterministically re-executes a bundle from scratch
// and reports the fresh outcome; recorded error/trace are never trusted.
func ReplayArtifact(b *Artifact, opts ReplayOptions) (*ReplayReport, error) {
	return artifact.Replay(b, opts)
}

// Shrink minimizes a still-failing bundle (ddmin chunk removal,
// per-decision lowering, crash-point removal, quantum/level lowering);
// every accepted candidate is re-verified by a fresh replay.
func Shrink(b *Artifact, opts ShrinkOptions) (*Artifact, *ShrinkStats, error) {
	return minimize.Shrink(b, opts)
}

// ArtifactBuilder returns the registered builder for meta, for use with
// the explorers; pair it with ExploreOptions.ArtifactMeta (and
// .Minimize) so every recorded violation carries a replayable — and
// optionally pre-shrunk — bundle.
func ArtifactBuilder(meta ArtifactMeta) (Builder, error) { return check.BuilderFor(meta) }

// Tracing.

// Auditor independently re-verifies Axioms 1-2 from a run's event
// stream; wire it in as Config.Observer and check Err afterwards.
type Auditor = sim.Auditor

// NewAuditor returns an axiom auditor for the given quantum.
func NewAuditor(quantum int) *Auditor { return sim.NewAuditor(quantum) }

// ObserverTee fans simulation events out to several observers.
type ObserverTee = sim.Tee

// TraceRecorder buffers events for Fig. 1/2-style timeline rendering.
type TraceRecorder = trace.Recorder

// TraceRenderOptions controls timeline rendering.
type TraceRenderOptions = trace.RenderOptions

// NewTraceRecorder returns a recorder buffering up to limit statements
// (0 = 4096). Pass it as Config.Observer.
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// Experiments (see EXPERIMENTS.md).

// Table1Row is one row of the reproduced Table 1.
type Table1Row = bench.Table1Row

// Table1Sweep regenerates Table 1 empirically (experiment E1).
func Table1Sweep(p, m, v, seeds int, qGrid []int) []Table1Row {
	return bench.Table1Sweep(p, m, v, seeds, qGrid, 0)
}

// RenderTable1 renders a Table 1 sweep.
func RenderTable1(p, m, v int, rows []Table1Row) string {
	return bench.RenderTable1(p, m, v, rows)
}
