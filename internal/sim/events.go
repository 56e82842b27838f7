package sim

import "repro/internal/mem"

// Op identifies the kind of atomic statement a process executed.
type Op int

// Statement kinds.
const (
	OpRead  Op = iota + 1 // shared register read
	OpWrite               // shared register write
	OpCons                // C-consensus object invocation
	OpLocal               // counted local statement
)

// String returns a short mnemonic for the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpCons:
		return "C"
	case OpLocal:
		return "L"
	default:
		return "?"
	}
}

// StmtEvent describes one executed atomic statement.
type StmtEvent struct {
	// Proc is the executing process.
	Proc *Process
	// Op is the statement kind.
	Op Op
	// Object names the register or consensus object touched ("" for
	// local statements).
	Object string
	// Value is the value read, written, or returned.
	Value uint64
	// Step is the global statement index (set by the kernel).
	Step int64
	// Fp is the statement's canonical access footprint.
	Fp mem.Footprint
}

// Access describes one executed atomic statement (or crash event) for
// dependence analysis: which process ran, on which processor, with what
// footprint. The kernel accumulates accesses between decision points
// and delivers them in Decision.Since, so a footprint-aware chooser can
// track which pending statements a just-executed statement conflicts
// with.
type Access struct {
	// Proc is the executing (or crashing) process's id.
	Proc int
	// Processor is that process's processor index.
	Processor int
	// Fp is the executed statement's footprint (zero for crash events).
	Fp mem.Footprint
	// Global marks events that are dependent with everything: invocation
	// arrivals (the statement also changes scheduler arrival state),
	// invocation completions (holder slots free, dynamic priorities
	// apply, operation precedence is established), and crash-stop faults.
	Global bool
}

// SchedKind identifies a scheduling event.
type SchedKind int

// Scheduling event kinds.
const (
	SchedArrive   SchedKind = iota + 1 // thinking process began an invocation
	SchedPreempt                       // same-priority (quantum) preemption
	SchedInvEnd                        // invocation completed
	SchedProcDone                      // process program finished
	SchedCrash                         // process halted by a crash-stop fault
)

// String returns a short mnemonic for the scheduling event kind.
func (k SchedKind) String() string {
	switch k {
	case SchedArrive:
		return "arrive"
	case SchedPreempt:
		return "preempt"
	case SchedInvEnd:
		return "inv-end"
	case SchedProcDone:
		return "done"
	case SchedCrash:
		return "crash"
	default:
		return "?"
	}
}

// SchedEvent describes one scheduling event.
type SchedEvent struct {
	// Kind is the event kind.
	Kind SchedKind
	// Proc is the process the event concerns (for SchedPreempt, the
	// preempted process).
	Proc *Process
	// By is the preempting process for SchedPreempt, nil otherwise.
	By *Process
	// Step is the global statement index at which the event occurred.
	Step int64
}

// Observer receives simulation events. Implementations must not touch
// shared memory or the system; they are called synchronously by the
// kernel during Run, often on the coroutine of the process that just
// executed a statement, and a panic escapes Run with its value.
type Observer interface {
	// OnStatement is called after each executed statement.
	OnStatement(ev StmtEvent)
	// OnSchedule is called after each scheduling event.
	OnSchedule(ev SchedEvent)
}
