// Package jobspec defines the serializable job specifications shared
// by the one-shot CLIs (cmd/checker, cmd/soak) and the job service
// (internal/service, cmd/server): a job is a workload-registry
// reference plus exploration or campaign parameters, and this package
// is the single place that turns one into a check.Builder +
// check.Options or a campaign.Config. Both entry points therefore
// construct byte-identical jobs — a spec submitted over the REST API
// runs exactly what the equivalent CLI flags would, and a spec round-
// trips through JSON unchanged (it is what the service persists in the
// store and what a client POSTs to /jobs).
//
// Durations and sizes use explicit units (milliseconds, MiB) rather
// than time.Duration's nanosecond JSON encoding, so hand-written specs
// stay legible.
package jobspec

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/check"
	"repro/internal/sched"
)

// Job kinds.
const (
	KindCheck   = "check"
	KindSoak    = "soak"
	KindLint    = "lint"
	KindMeasure = "measure"
)

// Spec is one submittable job: exactly one of the kind-specific
// payloads is set, matching Kind.
type Spec struct {
	// Kind selects the job type: "check" (schedule-space exploration,
	// cmd/checker's work), "soak" (a durable replay campaign, cmd/soak's
	// work), "lint" (a reprolint static-analysis run, cmd/reprolint's
	// work), or "measure" (an empirical progress-bound measurement
	// campaign, cmd/checker -measure's work).
	Kind string `json:"kind"`
	// Check is the exploration spec (Kind "check").
	Check *Check `json:"check,omitempty"`
	// Soak is the campaign spec (Kind "soak").
	Soak *Soak `json:"soak,omitempty"`
	// Lint is the static-analysis spec (Kind "lint").
	Lint *Lint `json:"lint,omitempty"`
	// Measure is the measurement spec (Kind "measure").
	Measure *Measure `json:"measure,omitempty"`
}

// payloads returns the set payloads and whether the one matching Kind
// is among them.
func (s *Spec) payloads() (n int, matching bool) {
	for _, p := range []struct {
		kind string
		set  bool
	}{
		{KindCheck, s.Check != nil},
		{KindSoak, s.Soak != nil},
		{KindLint, s.Lint != nil},
		{KindMeasure, s.Measure != nil},
	} {
		if p.set {
			n++
			if p.kind == s.Kind {
				matching = true
			}
		}
	}
	return n, matching
}

// Validate checks the spec's shape and its kind-specific payload.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindCheck, KindSoak, KindLint, KindMeasure:
		if n, ok := s.payloads(); n != 1 || !ok {
			return fmt.Errorf("jobspec: kind %q wants exactly the %s payload", s.Kind, s.Kind)
		}
	case "":
		return fmt.Errorf("jobspec: missing kind (want %q, %q, %q, or %q)", KindCheck, KindSoak, KindLint, KindMeasure)
	default:
		return fmt.Errorf("jobspec: unknown kind %q (want %q, %q, %q, or %q)", s.Kind, KindCheck, KindSoak, KindLint, KindMeasure)
	}
	switch s.Kind {
	case KindCheck:
		return s.Check.Validate()
	case KindSoak:
		return s.Soak.Validate()
	case KindLint:
		return s.Lint.Validate()
	default:
		return s.Measure.Validate()
	}
}

// Describe renders a short human-readable summary of the job.
func (s *Spec) Describe() string {
	switch {
	case s.Check != nil:
		c := s.Check
		return fmt.Sprintf("check %s mode=%s q=%d", c.Meta.Workload, c.Mode, c.Meta.Quantum)
	case s.Soak != nil:
		w := s.Soak.Workload
		if w == "" {
			w = "soakmix"
		}
		return fmt.Sprintf("soak %s runs=%d seed=%d", w, s.Soak.Runs, s.Soak.Seed)
	case s.Lint != nil:
		return "lint " + strings.Join(s.Lint.ResolvedPatterns(), " ")
	case s.Measure != nil:
		m := s.Measure
		return fmt.Sprintf("measure %s model=%s replays=%d", m.Meta.Workload, m.ResolvedModel(), m.ResolvedReplays())
	default:
		return "invalid spec"
	}
}

// Parse decodes and validates a spec from JSON.
func Parse(data []byte) (*Spec, error) {
	s := &Spec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("jobspec: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Exploration modes for Check.Mode.
const (
	ModeAll    = "all"
	ModeBudget = "budget"
	ModeFuzz   = "fuzz"
)

// Check specifies one schedule-space exploration over a registered
// workload — the job-shaped form of cmd/checker's flags. Everything
// that defines the exploration's outcome lives here; presentation-only
// concerns (progress printing, wall-clock timeouts, frontier files)
// stay with the caller.
type Check struct {
	// Meta is the workload-registry reference: which system is built
	// and its full configuration, including Meta.WaitFreeBound (the
	// wait-freedom property is part of the job's identity, so it rides
	// in the meta exactly as repro bundles carry it).
	Meta artifact.Meta `json:"meta"`
	// Mode is the exploration strategy: all | budget | fuzz.
	Mode string `json:"mode"`
	// Budget is the context-switch deviation budget (mode "budget").
	Budget int `json:"budget,omitempty"`
	// Seeds is the number of fuzz seeds (mode "fuzz"; 0 = 500).
	Seeds int `json:"seeds,omitempty"`
	// MaxSchedules caps executed schedules (0 = check's default).
	MaxSchedules int `json:"max_schedules,omitempty"`
	// Parallelism is the requested worker count (0 = all CPUs; the
	// service treats it as a cap under its fair-share allocation).
	Parallelism int `json:"parallelism,omitempty"`
	// Reduction names the exploration reduction: none | sleepset |
	// fingerprint | full ("" = none).
	Reduction string `json:"reduction,omitempty"`
	// StopAtFirst stops at the first violation.
	StopAtFirst bool `json:"stop_at_first,omitempty"`
	// Artifacts requests a replayable repro bundle per violation.
	Artifacts bool `json:"artifacts,omitempty"`
	// Minimize shrinks each violation's bundle to a minimal
	// still-failing kernel (implies Artifacts).
	Minimize bool `json:"minimize,omitempty"`
	// ShrinkBudget caps candidate replays per shrunk violation.
	ShrinkBudget int `json:"shrink_budget,omitempty"`
	// RunDeadlineMS bounds each run in wall-clock milliseconds
	// (check.Options.RunDeadline; 0 = off).
	RunDeadlineMS int64 `json:"run_deadline_ms,omitempty"`
	// MemSoftMB is the soft heap ceiling in MiB
	// (check.Options.MemSoftLimit; 0 = off).
	MemSoftMB int64 `json:"mem_soft_mb,omitempty"`
	// Model, mode "fuzz" only, names the registered scheduler model
	// schedules are drawn from (sched.ParseModelSpec grammar, compact
	// or JSON form; "" = uniform).
	Model string `json:"sched_model,omitempty"`
}

// Validate checks the exploration spec against the workload registry
// and the mode/reduction grammars.
func (c *Check) Validate() error {
	if !artifact.Known(c.Meta.Workload) {
		return fmt.Errorf("jobspec: unknown workload %q (have %v)", c.Meta.Workload, artifact.Workloads())
	}
	switch c.Mode {
	case ModeAll, ModeBudget, ModeFuzz:
	default:
		return fmt.Errorf("jobspec: unknown mode %q (want all|budget|fuzz)", c.Mode)
	}
	if c.Budget < 0 || c.Seeds < 0 || c.MaxSchedules < 0 || c.Parallelism < 0 ||
		c.ShrinkBudget < 0 || c.RunDeadlineMS < 0 || c.MemSoftMB < 0 {
		return fmt.Errorf("jobspec: negative bound in check spec")
	}
	if _, err := check.ParseReduction(c.reduction()); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	if c.Model != "" {
		if c.Mode != ModeFuzz {
			return fmt.Errorf("jobspec: sched_model requires mode %q (tree explorers enumerate decisions, they do not draw)", ModeFuzz)
		}
		if _, err := sched.ParseModelSpec(c.Model); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	return nil
}

func (c *Check) reduction() string {
	if c.Reduction == "" {
		return "none"
	}
	return c.Reduction
}

func (c *Check) seeds() int {
	if c.Seeds <= 0 {
		return 500
	}
	return c.Seeds
}

// Builder resolves the spec's workload to a check.Builder.
func (c *Check) Builder() (check.Builder, error) {
	return check.BuilderFor(c.Meta)
}

// Options assembles the check.Options the spec defines. Caller-side
// concerns — Context, Progress, frontier export/seed — are zero and
// layered on by the CLI or the service.
func (c *Check) Options() (check.Options, error) {
	red, err := check.ParseReduction(c.reduction())
	if err != nil {
		return check.Options{}, fmt.Errorf("jobspec: %w", err)
	}
	opts := check.Options{
		MaxSchedules:  c.MaxSchedules,
		StopAtFirst:   c.StopAtFirst,
		Parallelism:   c.Parallelism,
		WaitFreeBound: c.Meta.WaitFreeBound,
		Reduction:     red,
		RunDeadline:   time.Duration(c.RunDeadlineMS) * time.Millisecond,
		MemSoftLimit:  uint64(c.MemSoftMB) << 20,
	}
	if c.Artifacts || c.Minimize {
		meta := c.Meta
		opts.ArtifactMeta = &meta
		opts.Minimize = c.Minimize
		opts.ShrinkBudget = c.ShrinkBudget
	}
	if c.Model != "" {
		spec, err := sched.ParseModelSpec(c.Model)
		if err != nil {
			return check.Options{}, fmt.Errorf("jobspec: %w", err)
		}
		opts.SchedModel = spec
	}
	return opts, nil
}

// Run dispatches the exploration the spec's mode selects. build and
// opts normally come from Builder and Options, with caller-side fields
// (Context, Progress, frontier) layered on.
func (c *Check) Run(build check.Builder, opts check.Options) *check.Result {
	switch c.Mode {
	case ModeAll:
		return check.ExploreAll(build, opts)
	case ModeBudget:
		return check.ExploreBudget(build, c.Budget, opts)
	default:
		return check.Fuzz(build, c.seeds(), opts)
	}
}

// defaultCrashSeedSalt derives a crash seed from the base seed when
// none is given, matching cmd/soak's historical behavior.
const defaultCrashSeedSalt = 0x5deece66d

// Soak specifies one durable replay campaign — the job-shaped form of
// cmd/soak's flags. The zero Workload is the classic randomized
// soakmix sweep; naming a registered workload pins every run to that
// family with the N/V/Quantum/WaitFreeBound parameters below and only
// the seeded schedule and crash plan varying per run
// (artifact.SeededMeta).
type Soak struct {
	// Workload pins a fixed-workload campaign ("" = soakmix).
	Workload string `json:"workload,omitempty"`
	// N, V, Quantum parameterize a fixed workload (0 = the workload's
	// defaults).
	N       int `json:"n,omitempty"`
	V       int `json:"v,omitempty"`
	Quantum int `json:"quantum,omitempty"`
	// WaitFreeBound fails any run in which a live process exceeds this
	// many of its own statements in one invocation (0 = off).
	WaitFreeBound int64 `json:"waitfree_bound,omitempty"`
	// Runs is the campaign length (0 = unbounded, until stopped).
	Runs int64 `json:"runs,omitempty"`
	// Seed is the campaign's base seed (campaign identity).
	Seed int64 `json:"seed"`
	// CrashSeed seeds crash injection (0 = derive from Seed).
	CrashSeed int64 `json:"crash_seed,omitempty"`
	// MaxCrashes caps injected crash-stop faults per run.
	MaxCrashes int `json:"max_crashes,omitempty"`
	// Parallelism is the requested worker count (0 = all CPUs; a cap
	// under the service's fair share).
	Parallelism int `json:"parallelism,omitempty"`
	// RunDeadlineMS is the per-run watchdog deadline in milliseconds
	// (campaign.Config.RunTimeout; 0 = off).
	RunDeadlineMS int64 `json:"run_deadline_ms,omitempty"`
	// CheckpointEvery is the completed-run interval between checkpoint
	// snapshots (0 = campaign default).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// MemSoftMB is the soft heap ceiling in MiB (0 = off).
	MemSoftMB int64 `json:"mem_soft_mb,omitempty"`
	// KeepGoing records violations and continues instead of stopping
	// the campaign at the first one.
	KeepGoing bool `json:"keep_going,omitempty"`
	// Model names the registered scheduler model the campaign's
	// schedules are drawn from (sched.ParseModelSpec grammar;
	// "" = uniform). Simple (non-wrapper) specs only: campaign crash
	// injection comes from CrashSeed/MaxCrashes, and a wrapper spec's
	// inner seeds would not vary per run. Part of the campaign
	// identity.
	Model string `json:"sched_model,omitempty"`
}

// Validate checks the campaign spec against the workload registry.
func (s *Soak) Validate() error {
	if s.Workload != "" && !artifact.Known(s.Workload) {
		return fmt.Errorf("jobspec: unknown workload %q (have %v)", s.Workload, artifact.Workloads())
	}
	if s.Runs < 0 || s.MaxCrashes < 0 || s.Parallelism < 0 || s.N < 0 || s.V < 0 ||
		s.Quantum < 0 || s.WaitFreeBound < 0 || s.RunDeadlineMS < 0 ||
		s.CheckpointEvery < 0 || s.MemSoftMB < 0 {
		return fmt.Errorf("jobspec: negative bound in soak spec")
	}
	if s.Model != "" {
		spec, err := sched.ParseModelSpec(s.Model)
		if err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
		if spec.Inner != nil {
			return fmt.Errorf("jobspec: soak sched_model %q: wrapper specs are not campaign-derivable (use crash_seed/max_crashes for faults)", s.Model)
		}
	}
	return nil
}

// ResolvedCrashSeed returns the crash seed the campaign will actually
// use (deriving the default when CrashSeed is zero).
func (s *Soak) ResolvedCrashSeed() int64 {
	if s.CrashSeed != 0 {
		return s.CrashSeed
	}
	return s.Seed ^ defaultCrashSeedSalt
}

// Config assembles the campaign.Config the spec defines. Caller-side
// concerns — StateDir, ArtifactDir, Stop, Log, Progress — are zero and
// layered on by the CLI or the service.
func (s *Soak) Config() campaign.Config {
	var model *sched.ModelSpec
	if s.Model != "" {
		model, _ = sched.ParseModelSpec(s.Model) // validated by Validate
	}
	return campaign.Config{
		SchedModel:      model,
		Runs:            s.Runs,
		BaseSeed:        s.Seed,
		CrashSeed:       s.ResolvedCrashSeed(),
		MaxCrashes:      s.MaxCrashes,
		Workload:        s.Workload,
		N:               s.N,
		V:               s.V,
		Quantum:         s.Quantum,
		WaitFreeBound:   s.WaitFreeBound,
		Parallel:        s.Parallelism,
		RunTimeout:      time.Duration(s.RunDeadlineMS) * time.Millisecond,
		CheckpointEvery: s.CheckpointEvery,
		MemSoftLimit:    uint64(s.MemSoftMB) << 20,
		StopOnViolation: !s.KeepGoing,
	}
}

// Lint specifies one reprolint static-analysis run — the job-shaped
// form of cmd/reprolint's flags. The run lints the server's own source
// tree (the module enclosing the server process's working directory):
// the farm is self-hosting its discipline checks, so a lint job's
// output is a property of the checked-out tree, not of anything the
// spec can point elsewhere. The service stores the SARIF log and the
// derived bounds report as content-addressed artifacts (job artifact
// indices 0 and 1).
type Lint struct {
	// Patterns selects package directories, in cmd/reprolint's pattern
	// grammar: ".", "./...", "./dir", or "./dir/..." (empty = ["./..."]).
	Patterns []string `json:"patterns,omitempty"`
	// NoTests excludes _test.go files from analysis.
	NoTests bool `json:"no_tests,omitempty"`
	// Parallelism is the requested analysis worker count (0 = all CPUs;
	// a cap under the service's fair share).
	Parallelism int `json:"parallelism,omitempty"`
}

// Validate checks the lint spec's pattern grammar.
func (l *Lint) Validate() error {
	for _, p := range l.Patterns {
		if err := analysis.ValidPattern(p); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	if l.Parallelism < 0 {
		return fmt.Errorf("jobspec: negative bound in lint spec")
	}
	return nil
}

// ResolvedPatterns returns the patterns the run will use, applying the
// whole-tree default.
func (l *Lint) ResolvedPatterns() []string {
	if len(l.Patterns) == 0 {
		return []string{"./..."}
	}
	return l.Patterns
}

// SoakFromIdentity reconstructs the soak spec a persisted campaign
// state directory encodes (campaign.Identity carries the seeds and
// workload parameters), so `soak -resume <dir>` and the service's
// resume-on-boot rebuild exactly the campaign that was interrupted.
func SoakFromIdentity(id campaign.Identity) *Soak {
	return &Soak{
		Workload:      id.Workload,
		N:             id.N,
		V:             id.V,
		Quantum:       id.Quantum,
		WaitFreeBound: id.WaitFreeBound,
		Seed:          id.BaseSeed,
		CrashSeed:     id.CrashSeed,
		MaxCrashes:    id.MaxCrashes,
		Model:         id.SchedModel,
	}
}

// DefaultMeasureReplays is the measurement campaign length when the
// spec leaves Replays zero.
const DefaultMeasureReplays = 2000

// Measure specifies one empirical progress-bound measurement campaign
// — the job-shaped form of cmd/checker's -measure flag. The job fuzzes
// Replays runs of the workload under the scheduler model and reduces
// every run's per-invocation statement counts to a
// check.ProgressStats distribution (the stored artifact). Violations
// (e.g. Meta.WaitFreeBound hits) are counted but do not fail the job:
// a negative control exceeding its bound is the measurement working,
// not the farm failing.
type Measure struct {
	// Meta is the workload-registry reference, including the optional
	// declared bound to count violations against.
	Meta artifact.Meta `json:"meta"`
	// Model is the scheduler model to measure under
	// (sched.ParseModelSpec grammar; "" = "uniform").
	Model string `json:"sched_model,omitempty"`
	// Replays is the number of measured runs (0 = 2000).
	Replays int `json:"replays,omitempty"`
	// Parallelism is the requested worker count (0 = all CPUs; a cap
	// under the service's fair share).
	Parallelism int `json:"parallelism,omitempty"`
	// RunDeadlineMS bounds each run in wall-clock milliseconds
	// (0 = off).
	RunDeadlineMS int64 `json:"run_deadline_ms,omitempty"`
}

// Validate checks the measurement spec against the workload and model
// registries.
func (m *Measure) Validate() error {
	if !artifact.Known(m.Meta.Workload) {
		return fmt.Errorf("jobspec: unknown workload %q (have %v)", m.Meta.Workload, artifact.Workloads())
	}
	if m.Replays < 0 || m.Parallelism < 0 || m.RunDeadlineMS < 0 {
		return fmt.Errorf("jobspec: negative bound in measure spec")
	}
	if _, err := sched.ParseModelSpec(m.ResolvedModel()); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	return nil
}

// ResolvedModel returns the model spec string the job will use,
// applying the uniform default.
func (m *Measure) ResolvedModel() string {
	if m.Model == "" {
		return "uniform"
	}
	return m.Model
}

// ResolvedReplays returns the measured run count, applying the
// default.
func (m *Measure) ResolvedReplays() int {
	if m.Replays <= 0 {
		return DefaultMeasureReplays
	}
	return m.Replays
}

// Builder resolves the spec's workload to a check.Builder.
func (m *Measure) Builder() (check.Builder, error) {
	return check.BuilderFor(m.Meta)
}

// Options assembles the check.Options the measurement defines.
// Caller-side concerns — Context, Progress — are layered on by the CLI
// or the service.
func (m *Measure) Options() (check.Options, error) {
	spec, err := sched.ParseModelSpec(m.ResolvedModel())
	if err != nil {
		return check.Options{}, fmt.Errorf("jobspec: %w", err)
	}
	return check.Options{
		MaxSchedules:  m.ResolvedReplays(),
		Parallelism:   m.Parallelism,
		WaitFreeBound: m.Meta.WaitFreeBound,
		RunDeadline:   time.Duration(m.RunDeadlineMS) * time.Millisecond,
		SchedModel:    spec,
		Measure:       true,
	}, nil
}

// Run executes the measurement sweep.
func (m *Measure) Run(build check.Builder, opts check.Options) *check.Result {
	return check.Fuzz(build, m.ResolvedReplays(), opts)
}
