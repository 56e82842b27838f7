package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/durable"
)

// checkpointVersion guards the snapshot format and the streams its
// runs derive from. Version 2 campaigns derive every run through
// sched.NewRand; a version-1 campaign drew math/rand streams, so its
// run indices name different runs now and LoadCheckpoint refuses it.
const checkpointVersion = 2

// Identity pins a state directory to one campaign: resuming with
// different seeds, crash settings, or workload parameters would
// silently re-derive different runs under the same indices, so a
// mismatch is an error, not a resume. The identity carries everything
// the default derivations need, which is why a state directory alone
// suffices to resume (cmd/soak -resume reads the spec back from here).
type Identity struct {
	BaseSeed   int64 `json:"base_seed"`
	CrashSeed  int64 `json:"crash_seed"`
	MaxCrashes int   `json:"max_crashes"`
	// Workload pins a fixed-workload campaign (artifact.SeededMeta
	// derivation) to its registered family; empty means the classic
	// randomized soakmix sweep (artifact.SoakMeta), so pre-existing
	// checkpoints load unchanged.
	Workload string `json:"workload,omitempty"`
	// N, V, Quantum and WaitFreeBound parameterize the fixed workload
	// (unused, and zero, for soakmix).
	N             int   `json:"n,omitempty"`
	V             int   `json:"v,omitempty"`
	Quantum       int   `json:"quantum,omitempty"`
	WaitFreeBound int64 `json:"waitfree_bound,omitempty"`
	// SchedModel is the canonical scheduler-model spec string
	// (sched.ModelSpec.String) when the campaign names a model; empty
	// for the uniform default.
	SchedModel string `json:"sched_model,omitempty"`
}

// Violation is one property violation found by a campaign run.
type Violation struct {
	// Idx is the run index (the violation's identity across resumes).
	Idx int64 `json:"idx"`
	// Err is the verifier error.
	Err string `json:"err"`
	// Artifact is the saved repro bundle path ("" when no artifact
	// directory was configured or the capture failed).
	Artifact string `json:"artifact,omitempty"`
}

// State is the complete durable progress of a campaign. The done-set
// is a contiguous prefix [0, NextIdx) plus a sorted sparse tail Extras
// (indices completed out of order by parallel workers); everything
// else about the campaign is deterministically re-derivable from the
// done-set and the config, which is what makes resume exact.
type State struct {
	// NextIdx is the lowest run index not known to be done.
	NextIdx int64 `json:"next_idx"`
	// Extras are done indices > NextIdx, sorted ascending.
	Extras []int64 `json:"extras,omitempty"`
	// Runs is the number of completed runs (== NextIdx + len(Extras)).
	Runs int64 `json:"runs"`
	// Crashes is the total number of injected crash-stop faults.
	Crashes int64 `json:"crashes"`
	// TimedOut is the number of runs the watchdog cut off twice
	// (recorded incidents, counted as done).
	TimedOut int64 `json:"timed_out"`
	// Violations are the property violations found, sorted by Idx.
	Violations []Violation `json:"violations,omitempty"`
	// Degradations are the degradation-ladder events, in order.
	Degradations []string `json:"degradations,omitempty"`
	// Resumed counts how many times the campaign was resumed.
	Resumed int `json:"resumed"`
}

// done reports whether run idx is in the done-set.
func (s *State) done(idx int64) bool {
	if idx < s.NextIdx {
		return true
	}
	i := sort.Search(len(s.Extras), func(i int) bool { return s.Extras[i] >= idx })
	return i < len(s.Extras) && s.Extras[i] == idx
}

// markDone adds idx to the done-set and reports whether it was new
// (false = duplicate, e.g. a journal record replayed over a checkpoint
// that already contains it).
func (s *State) markDone(idx int64) bool {
	if s.done(idx) {
		return false
	}
	if idx == s.NextIdx {
		s.NextIdx++
		for len(s.Extras) > 0 && s.Extras[0] == s.NextIdx {
			s.Extras = s.Extras[1:]
			s.NextIdx++
		}
	} else {
		i := sort.Search(len(s.Extras), func(i int) bool { return s.Extras[i] >= idx })
		s.Extras = append(s.Extras, 0)
		copy(s.Extras[i+1:], s.Extras[i:])
		s.Extras[i] = idx
	}
	s.Runs++
	return true
}

// apply folds one journal record into the state, idempotently for run
// records (the only kind recovery can see twice).
func (s *State) apply(rec Record) {
	switch rec.Type {
	case recRun:
		if !s.markDone(rec.Idx) {
			return
		}
		s.Crashes += int64(rec.Crashed)
		if rec.TimedOut {
			s.TimedOut++
		}
		if rec.Err != "" {
			s.Violations = append(s.Violations, Violation{Idx: rec.Idx, Err: rec.Err, Artifact: rec.Artifact})
			sort.Slice(s.Violations, func(i, j int) bool { return s.Violations[i].Idx < s.Violations[j].Idx })
		}
	case recDegrade:
		s.Degradations = append(s.Degradations, rec.Event)
	}
}

// Checkpoint is the atomic snapshot written alongside the journal:
// state as of some moment, never torn (durable.WriteFile), always
// consistent with replaying the journal's records on top (run records
// are idempotent). Recovery = load checkpoint (if any) + apply journal.
type Checkpoint struct {
	Version  int      `json:"version"`
	Identity Identity `json:"identity"`
	State    State    `json:"state"`
}

const (
	checkpointName = "checkpoint.json"
	journalName    = "journal.wal"
)

// mkdirAll wraps os.MkdirAll with the package's error prefix.
func mkdirAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// CheckpointPath returns the checkpoint location inside a state dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, checkpointName) }

// JournalPath returns the journal location inside a state dir.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// WriteCheckpoint atomically persists cp into dir (durable.WriteFile),
// so a crash at any point leaves either the old or the new snapshot —
// never a torn one.
func WriteCheckpoint(dir string, cp *Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encode checkpoint: %w", err)
	}
	if err := durable.WriteFile(CheckpointPath(dir), append(data, '\n')); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the checkpoint from dir; (nil, nil) when none
// exists yet.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(CheckpointPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("campaign: decode checkpoint %s: %w", CheckpointPath(dir), err)
	}
	if cp.Version > checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint version %d newer than supported %d", cp.Version, checkpointVersion)
	}
	if cp.Version < checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint version %d derives its runs from the math/rand streams that version %d replaced, so its run indices name other runs now; start the campaign over in a fresh state directory",
			cp.Version, checkpointVersion)
	}
	return cp, nil
}
