// Package artifact implements counterexample repro bundles: versioned,
// JSON-serializable records of everything needed to deterministically
// replay a violating run — workload identity and configuration, the
// schedule (an explicit decision vector, or a seeded scheduler model),
// crash plan, wait-freedom bound, the verifier's error text, and a
// rendered timeline. Bundles are the currency of the forensics pipeline:
// the exploration engine (internal/check) attaches them to violations,
// cmd/soak and cmd/checker write them to an artifact directory on
// failure, the shrinker (internal/minimize) reduces them to minimal
// kernels, and cmd/shrink drives the whole loop from the command line.
//
// A bundle references its system under test by workload name (see
// workloads.go) rather than by closure, which is what makes it
// serializable: Replay looks the builder up in the workload registry and
// reconstructs the identical system from the bundle's Meta. The replay
// contract therefore is: for a fixed Meta, the workload builder must be
// a deterministic function of the decision sequence.
//
// Bundles come in two schedule modes. Script mode (Sched.Scripted)
// replays an explicit decision vector and an explicit crash plan — the
// canonical, shrinkable form. Seeded mode (a Sched.Model, or the
// Sched.Random shorthand for the uniform model) re-derives the schedule
// and crash pattern from seeds, matching how fuzzers and cmd/soak found
// the failure; Normalize converts it to script mode by replaying once
// with recording wrappers. Every seed is drawn through sched.NewRand,
// so a seeded bundle names its run only for as long as those streams
// stay fixed: Replay refuses a seeded bundle written before version 3.
package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"

	"repro/internal/durable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Version is the current bundle format version. Load and Replay reject
// bundles with a newer version. Version history:
//
//	1: script and seeded-random schedule modes.
//	2: adds Sched.Model — registered scheduler-model specs
//	   (sched.ModelSpec) as a first-class schedule mode.
//	3: every seeded stream (schedules, crash plans, soakmix content)
//	   draws from sched.NewRand instead of math/rand. Replay refuses an
//	   older bundle unless it is in script mode with no Meta.WorkSeed,
//	   the one form whose run the change leaves alone.
const Version = 3

// Meta identifies the workload a bundle replays and its full
// configuration. Field applicability varies by workload; unused fields
// are zero and omitted from the JSON encoding.
type Meta struct {
	// Workload names the registered workload (see Workloads).
	Workload string `json:"workload"`
	// N is the process count (uniprocessor workloads).
	N int `json:"n,omitempty"`
	// P is the processor count (multicons).
	P int `json:"p,omitempty"`
	// M is the per-processor process count (multicons).
	M int `json:"m,omitempty"`
	// V is the number of priority levels.
	V int `json:"v,omitempty"`
	// K selects the consensus number C = P+K (multicons).
	K int `json:"k,omitempty"`
	// Quantum is the scheduling quantum Q in statements.
	Quantum int `json:"quantum"`
	// MaxSteps bounds the replayed run (0 = the workload's default).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// WaitFreeBound, if > 0, fails the replay when a live process
	// executes more than this many of its own statements within one
	// invocation (the check.Options.WaitFreeBound property).
	WaitFreeBound int64 `json:"waitfree_bound,omitempty"`
	// Crashes is the planned crash-stop fault schedule, applied by
	// wrapping the chooser in sched.Crash.
	Crashes []sched.CrashPoint `json:"crashes,omitempty"`
	// WorkSeed derives randomized workload content (soakmix).
	WorkSeed int64 `json:"work_seed,omitempty"`
}

// Sched describes how the replay resolves scheduling nondeterminism.
// Mode precedence: a non-nil Model selects model mode; otherwise
// Random selects the uniform model; otherwise the bundle is in script
// mode.
type Sched struct {
	// Model, if non-nil, replays through a registered scheduler model
	// (sched.NewFromSpec). A nonzero Seed overrides the spec's own
	// seed, so campaign runs can share one spec and store only their
	// derived per-run seed. Seeded crash injection
	// (CrashSeed/MaxCrashes/CrashProb) composes with every model.
	Model *sched.ModelSpec `json:"model,omitempty"`
	// Random, with no Model, is shorthand for the uniform model at
	// Seed.
	Random bool `json:"random,omitempty"`
	// Decisions is the script-mode decision vector (candidate index at
	// each decision point; past the end the replay picks candidate 0).
	Decisions []int `json:"decisions,omitempty"`
	// Seed seeds the model (overriding the spec's own seed when
	// nonzero).
	Seed int64 `json:"seed,omitempty"`
	// CrashSeed/MaxCrashes/CrashProb configure seeded crash injection
	// (sched.RandomCrash) around the model; MaxCrashes 0 disables it.
	CrashSeed  int64   `json:"crash_seed,omitempty"`
	MaxCrashes int     `json:"max_crashes,omitempty"`
	CrashProb  float64 `json:"crash_prob,omitempty"`
}

// Scripted reports whether the schedule replays from explicit
// decisions (script mode) rather than from seeds.
func (s Sched) Scripted() bool { return s.Model == nil && !s.Random }

// model returns the seeded-mode scheduler model: Model, the uniform
// model for the Random shorthand, nil in script mode. A nonzero Seed
// overrides the spec's own.
func (s Sched) model() *sched.ModelSpec {
	if s.Model == nil {
		if !s.Random {
			return nil
		}
		return &sched.ModelSpec{Name: "uniform", Seed: s.Seed}
	}
	if s.Seed == 0 {
		return s.Model
	}
	spec := s.Model.Clone()
	spec.Seed = s.Seed
	return spec
}

// Bundle is one serializable counterexample.
type Bundle struct {
	// Version is the bundle format version (see Version).
	Version int `json:"version"`
	// Meta identifies and configures the workload.
	Meta Meta `json:"meta"`
	// Sched resolves the schedule.
	Sched Sched `json:"sched"`
	// Err is the verifier error text of the recorded run ("" = the run
	// passed — not a counterexample).
	Err string `json:"err,omitempty"`
	// Trace is the rendered ASCII timeline of the recorded run.
	Trace string `json:"trace,omitempty"`
}

// ReplayOptions controls one Replay.
type ReplayOptions struct {
	// Trace renders the run's timeline into Report.Trace.
	Trace bool
	// Record captures the taken decision vector and fired crash points
	// into the Report (the raw material for Normalize).
	Record bool
	// Stop, if non-nil, is polled during the run (every StopCheckEvery
	// decisions, via sched.Watchdog); once it reports true the run is
	// cut off, Report.Stopped is set, and Report.RunErr is
	// sim.ErrPickAbort. This is the per-replay watchdog hook: callers
	// supply a deadline check and a stuck schedule becomes a recorded
	// timeout instead of a hang. A stopped run's Report.Err reflects
	// only what the truncated run established (the verifier still runs).
	Stop func() bool
	// StopCheckEvery is the decision interval between Stop polls
	// (0 = sched.Watchdog's default).
	StopCheckEvery int
}

// Report is the outcome of one Replay.
type Report struct {
	// Err is the property outcome: the verifier error joined with the
	// wait-freedom check, nil for a clean run. A panic anywhere in the
	// build, run, or verifier is reported here, not as a crash.
	Err error
	// RunErr is the raw error from System.Run (nil, ErrStepLimit, ...).
	RunErr error
	// Steps is the number of statements the run executed.
	Steps int64
	// Crashed is the number of processes halted by crash-stop faults.
	Crashed int
	// Stopped reports that ReplayOptions.Stop cut the run off before it
	// completed (the watchdog fired).
	Stopped bool
	// Fanouts is the fan-out (candidate count) at each decision point.
	Fanouts []int
	// Decisions is the recorded taken decision vector (Record only).
	Decisions []int
	// Fired is the recorded fired crash plan (Record only).
	Fired []sched.CrashPoint
	// Trace is the rendered timeline (Trace only).
	Trace string
}

// Failed reports whether the replay found a property violation.
func (r *Report) Failed() bool { return r.Err != nil }

// Replay deterministically re-executes the bundle's run and re-verifies
// its property from scratch. It never trusts the bundle's recorded Err:
// the returned Report carries a freshly computed outcome. A non-nil
// error return means the bundle itself is unusable (unknown workload,
// bad version); property violations are reported via Report.Err.
func Replay(b *Bundle, opts ReplayOptions) (*Report, error) {
	if b.Version > Version {
		return nil, fmt.Errorf("artifact: bundle version %d newer than supported %d", b.Version, Version)
	}
	if b.Version < Version && (!b.Sched.Scripted() || b.Meta.WorkSeed != 0) {
		return nil, fmt.Errorf("artifact: bundle version %d derives its run from the math/rand streams that version %d replaced; normalize it to script mode with an older build, or re-capture it",
			b.Version, Version)
	}
	build, err := builderFor(b.Meta)
	if err != nil {
		return nil, err
	}

	var ch sim.Chooser
	var script *sched.Script
	if spec := b.Sched.model(); spec != nil {
		mch, err := sched.NewFromSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("artifact: scheduler model: %w", err)
		}
		ch = mch
		if b.Sched.MaxCrashes > 0 {
			ch = sched.NewRandomCrash(ch, b.Sched.CrashSeed, b.Sched.MaxCrashes, b.Sched.CrashProb)
		}
	} else {
		script = &sched.Script{Decisions: b.Sched.Decisions}
		ch = script
	}
	if len(b.Meta.Crashes) > 0 {
		ch = sched.NewCrash(ch, b.Meta.Crashes...)
	}
	var rec *sched.Record
	if opts.Record {
		rec = sched.NewRecord(ch)
		ch = rec
	}
	var wd *sched.Watchdog
	if opts.Stop != nil {
		wd = &sched.Watchdog{Inner: ch, Stop: opts.Stop, CheckEvery: opts.StopCheckEvery}
		ch = wd
	}
	var tr *trace.Recorder
	var obs sim.Observer
	if opts.Trace {
		tr = trace.NewRecorder(0)
		obs = tr
	}

	rep := &Report{}
	rep.Err = protectedReplay(func() error {
		sys, verify := build(b.Meta, ch, obs)
		defer sys.Close()
		// The replay owns the system, and nothing reads its fingerprint:
		// no registered verifier does, and the system is closed here.
		sys.SkipFingerprint()
		rep.RunErr = sys.Run()
		rep.Steps = sys.Steps()
		rep.Crashed = sys.CrashedCount()
		return outcome(sys, verify, rep.RunErr, b.Meta.WaitFreeBound)
	})
	if wd != nil {
		rep.Stopped = wd.Fired
	}
	switch {
	case rec != nil:
		rep.Fanouts = rec.Fanouts
		rep.Decisions = rec.Taken
		rep.Fired = rec.Fired
	case script != nil:
		rep.Fanouts = script.Fanouts
	}
	if tr != nil {
		rep.Trace = tr.Render(trace.RenderOptions{Ops: true})
	}
	return rep, nil
}

// protectedReplay converts a panic in the builder, run, or verifier into
// a property error, so one bad bundle cannot kill its caller.
func protectedReplay(f func() error) (verr error) {
	defer func() {
		if r := recover(); r != nil {
			verr = fmt.Errorf("artifact: replay panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// outcome mirrors the exploration engine's per-run verdict: step-limit
// aborts echoed verbatim by the verifier are not violations by
// themselves, while a distinct verifier error — or the wait-freedom
// bound firing on the aborted run — is.
func outcome(sys *sim.System, verify func(error) error, runErr error, bound int64) error {
	limited := errors.Is(runErr, sim.ErrStepLimit)
	verr := verify(runErr)
	if verr != nil && limited && errors.Is(verr, sim.ErrStepLimit) {
		verr = nil
	}
	return errors.Join(verr, waitFree(sys, bound))
}

// waitFree enforces Meta.WaitFreeBound over a completed run (the same
// property check.Options.WaitFreeBound applies during exploration).
func waitFree(sys *sim.System, bound int64) error {
	if bound <= 0 {
		return nil
	}
	for _, p := range sys.Processes() {
		if p.Crashed() {
			continue
		}
		if n := p.WorstInvStmts(); n > bound {
			return fmt.Errorf("artifact: wait-freedom violated: %s executed %d of its own statements in one invocation (bound %d)",
				p.Name(), n, bound)
		}
	}
	return nil
}

// Capture replays (meta, schedule) once with tracing and returns the
// filled-in bundle together with the replay report. The bundle's Err and
// Trace always come from this fresh execution. Note a bundle whose run
// passes (Report.Err nil) is not a counterexample; callers deciding
// whether to save should check the report.
func Capture(meta Meta, s Sched) (*Bundle, *Report, error) {
	b := &Bundle{Version: Version, Meta: meta, Sched: s}
	rep, err := Replay(b, ReplayOptions{Trace: true})
	if err != nil {
		return nil, nil, err
	}
	if rep.Err != nil {
		b.Err = rep.Err.Error()
	}
	b.Trace = rep.Trace
	return b, rep, nil
}

// Normalize converts a bundle to canonical script mode: the run is
// replayed once with recording wrappers, and the recorded decision
// vector and fired crash points become the bundle's explicit schedule
// (trailing zero decisions are trimmed — past the script's end the
// replay picks candidate 0, so the run is unchanged). The normalized
// bundle is then re-executed from scratch; if its outcome differs from
// the recording run's, the workload broke the determinism contract and
// Normalize reports it rather than returning a bundle that lies.
func Normalize(b *Bundle) (*Bundle, error) {
	rep, err := Replay(b, ReplayOptions{Record: true})
	if err != nil {
		return nil, err
	}
	meta := b.Meta
	meta.Crashes = rep.Fired
	nb, nrep, err := Capture(meta, Sched{Decisions: trimZeros(rep.Decisions)})
	if err != nil {
		return nil, err
	}
	if errText(nrep.Err) != errText(rep.Err) {
		return nil, fmt.Errorf("artifact: normalize diverged (workload not a deterministic function of the decision sequence?): recorded %q, replayed %q",
			errText(rep.Err), errText(nrep.Err))
	}
	return nb, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// trimZeros drops trailing zero decisions, the canonical short form of a
// script-mode vector.
func trimZeros(dec []int) []int {
	n := len(dec)
	for n > 0 && dec[n-1] == 0 {
		n--
	}
	return dec[:n]
}

// Save writes the bundle as indented JSON to path, atomically
// (durable.WriteFile).
func (b *Bundle) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: encode: %w", err)
	}
	return durable.WriteFile(path, append(data, '\n'))
}

// SaveDir writes the bundle into dir (created if needed) under a
// content-derived name "<workload>-<hash>.json" and returns the path.
func (b *Bundle) SaveDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("artifact: %w", err)
	}
	data, err := json.Marshal(b)
	if err != nil {
		return "", fmt.Errorf("artifact: encode: %w", err)
	}
	h := fnv.New32a()
	h.Write(data)
	path := filepath.Join(dir, fmt.Sprintf("%s-%08x.json", b.Meta.Workload, h.Sum32()))
	return path, b.Save(path)
}

// Load reads a bundle from path, rejecting unknown future versions.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	b := &Bundle{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("artifact: decode %s: %w", path, err)
	}
	if b.Version > Version {
		return nil, fmt.Errorf("artifact: %s: bundle version %d newer than supported %d", path, b.Version, Version)
	}
	if b.Meta.Workload == "" {
		return nil, fmt.Errorf("artifact: %s: bundle names no workload", path)
	}
	if b.Sched.Model != nil {
		if err := b.Sched.Model.Validate(); err != nil {
			return nil, fmt.Errorf("artifact: %s: %w", path, err)
		}
	}
	return b, nil
}
