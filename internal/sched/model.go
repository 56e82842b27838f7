package sched

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ModelSpec is the serializable identity of a scheduler model: a
// registered model name plus everything that parameterizes one concrete
// chooser instance. A spec is the currency the whole stack trades in —
// repro bundles embed one (artifact.Sched.Model), jobspecs carry one,
// campaign identities pin one — and the contract is that
// NewFromSpec(spec) on any machine builds a chooser producing the
// identical decision stream for the same inputs.
//
// Field applicability varies by model. Seed feeds stochastic models
// (and the randomcrash wrapper); Params carries named numeric knobs
// (unknown names are rejected); Decisions is the script model's replay
// vector and the budgeted model's flattened (index, choice) switch
// word; Plan is the crash wrapper's fault schedule; Inner nests the
// wrapped model for wrapper models (crash, randomcrash, watchdog,
// record) and must be absent otherwise.
type ModelSpec struct {
	// Name is the registered model name (see Models).
	Name string `json:"name"`
	// Seed seeds stochastic models; ignored by deterministic ones.
	Seed int64 `json:"seed,omitempty"`
	// Params holds named numeric parameters (e.g. stay, eps, period).
	Params map[string]float64 `json:"params,omitempty"`
	// Decisions parameterizes the script model (decision vector) and
	// the budgeted model (flattened index/choice pairs).
	Decisions []int `json:"decisions,omitempty"`
	// Plan is the crash wrapper's planned fault schedule.
	Plan []CrashPoint `json:"plan,omitempty"`
	// Inner is the wrapped model (wrapper models only).
	Inner *ModelSpec `json:"inner,omitempty"`
}

// Model is one registered scheduler model: a named, documented chooser
// factory. Registration is what turns scheduler diversity from
// copy-paste wiring into data — every layer that used to hard-code a
// chooser type (check's fuzzer, artifact replay, jobspecs, CLIs) now
// resolves a ModelSpec through this registry instead.
type Model struct {
	// Name is the registry key.
	Name string
	// Doc is a one-line description for -help output.
	Doc string
	// Stochastic reports that the model consumes ModelSpec.Seed: its
	// decision stream varies by seed but is a pure function of it.
	Stochastic bool
	// Wrapper reports that the model wraps ModelSpec.Inner.
	Wrapper bool
	// Params names the model's recognized parameters and their
	// defaults; NewFromSpec rejects unknown parameter names.
	Params map[string]float64
	// New builds the chooser. The spec's Name is already validated.
	New func(spec *ModelSpec) (sim.Chooser, error)
}

// models is the scheduler-model registry.
var models = map[string]*Model{}

// RegisterModel adds a model to the registry; duplicate names panic
// (registration is init-time wiring, not user input).
func RegisterModel(m *Model) {
	if _, dup := models[m.Name]; dup {
		panic("sched: duplicate model " + m.Name)
	}
	models[m.Name] = m
}

// KnownModel reports whether name is a registered scheduler model.
func KnownModel(name string) bool {
	_, ok := models[name]
	return ok
}

// Models returns the registered model names, sorted.
func Models() []string {
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupModel returns the registered model, or nil.
func LookupModel(name string) *Model { return models[name] }

// Validate checks the spec (and its nested Inner chain) against the
// registry: the model must exist, every parameter name must be known,
// and Inner must be present exactly for wrapper models.
func (s *ModelSpec) Validate() error {
	m, ok := models[s.Name]
	if !ok {
		return fmt.Errorf("sched: unknown scheduler model %q (have %v)", s.Name, Models())
	}
	//repro:allow maporder validity is order-independent; only which unknown parameter an invalid spec names first varies
	for name := range s.Params {
		if _, known := m.Params[name]; !known {
			return fmt.Errorf("sched: model %s: unknown parameter %q", s.Name, name)
		}
	}
	if m.Wrapper {
		if s.Inner == nil {
			return fmt.Errorf("sched: wrapper model %s requires an inner model", s.Name)
		}
		return s.Inner.Validate()
	}
	if s.Inner != nil {
		return fmt.Errorf("sched: model %s takes no inner model", s.Name)
	}
	return nil
}

// Param returns the named parameter, falling back to the model's
// registered default.
func (s *ModelSpec) Param(name string) float64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	if m := models[s.Name]; m != nil {
		return m.Params[name]
	}
	return 0
}

// Clone returns a deep copy of the spec.
func (s *ModelSpec) Clone() *ModelSpec {
	if s == nil {
		return nil
	}
	c := *s
	if s.Params != nil {
		c.Params = make(map[string]float64, len(s.Params))
		//repro:allow maporder map-to-map copy; no order reaches output
		for k, v := range s.Params {
			c.Params[k] = v
		}
	}
	c.Decisions = append([]int(nil), s.Decisions...)
	c.Plan = append([]CrashPoint(nil), s.Plan...)
	c.Inner = s.Inner.Clone()
	return &c
}

// modelGolden is the Weyl increment run-seed derivation walks with,
// and modelDepthSalt decorrelates nested wrapper seeds so a randomcrash
// wrapper and its stochastic inner model never share a stream.
const (
	modelGolden    = 0x9e3779b97f4a7c15
	modelDepthSalt = 0x6a09e667f3bcc909
)

// RunSeed derives the seed for run idx of a sweep rooted at base: a
// Weyl walk, so consecutive runs get decorrelated but deterministic
// streams. Fuzz sweeps and the soak derivations (artifact.SoakMeta,
// artifact.SeededMeta) all name their runs through it.
func RunSeed(base, idx int64) int64 {
	return int64(uint64(base) + (uint64(idx)+1)*modelGolden)
}

// WithRunSeed returns a deep copy of the spec with every node's seed
// re-derived from (its configured seed, idx): run idx of a fuzz sweep
// or soak campaign gets a distinct, deterministic stream per node. The
// depth salt keeps a wrapper's stream independent of its inner
// model's.
func (s *ModelSpec) WithRunSeed(idx int64) *ModelSpec {
	c := s.Clone()
	for node, depth := c, int64(0); node != nil; node, depth = node.Inner, depth+1 {
		node.Seed = int64(uint64(RunSeed(node.Seed, idx)) + uint64(depth)*modelDepthSalt)
	}
	return c
}

// NewFromSpec validates the spec and builds its chooser.
func NewFromSpec(spec *ModelSpec) (sim.Chooser, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return models[spec.Name].New(spec)
}

// newInner builds a wrapper spec's inner chooser (already validated).
func newInner(spec *ModelSpec) (sim.Chooser, error) {
	return models[spec.Inner.Name].New(spec.Inner)
}

// Reseedable is implemented by stochastic choosers that can rewind to
// the start of the stream for a new seed in place, so a pooled worker
// replays seed after seed without reallocating (Uniform, Markov,
// Noisy). Reseed(s) must be equivalent to rebuilding the chooser with
// seed s.
type Reseedable interface {
	sim.Chooser
	Reseed(seed int64)
}

// ParseModelSpec parses the CLI form of a model spec: either raw JSON
// (a string starting with "{", the exact ModelSpec encoding, which is
// the only form that can express wrappers and scripts) or the compact
// "name" / "name:key=val,key=val" form, where "seed" is recognized
// alongside the model's registered parameters:
//
//	uniform
//	markov:stay=0.9,seed=7
//	noisy:eps=0.05
//	{"name":"randomcrash","seed":3,"params":{"max":1},"inner":{"name":"markov"}}
//
// The returned spec is validated against the registry.
func ParseModelSpec(s string) (*ModelSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("sched: empty scheduler model spec")
	}
	spec := &ModelSpec{}
	if strings.HasPrefix(s, "{") {
		if err := json.Unmarshal([]byte(s), spec); err != nil {
			return nil, fmt.Errorf("sched: model spec JSON: %w", err)
		}
	} else {
		name, rest, _ := strings.Cut(s, ":")
		spec.Name = name
		if rest != "" {
			for _, part := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(part, "=")
				if !ok {
					return nil, fmt.Errorf("sched: model spec %q: want key=value, got %q", s, part)
				}
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("sched: model spec %q: parameter %s: %w", s, key, err)
				}
				if key == "seed" {
					// An integer seed is taken exactly: a float64
					// holds only 53 bits of an int64.
					if spec.Seed, err = strconv.ParseInt(val, 10, 64); err != nil {
						spec.Seed = int64(f)
					}
					continue
				}
				if spec.Params == nil {
					spec.Params = map[string]float64{}
				}
				spec.Params[key] = f
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// String renders the spec canonically: compact form when it has no
// wrapper/script payload, JSON otherwise. The output round-trips
// through ParseModelSpec.
func (s *ModelSpec) String() string {
	if s.Inner == nil && len(s.Decisions) == 0 && len(s.Plan) == 0 {
		var b strings.Builder
		b.WriteString(s.Name)
		sep := byte(':')
		keys := make([]string, 0, len(s.Params))
		for k := range s.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%c%s=%s", sep, k, strconv.FormatFloat(s.Params[k], 'g', -1, 64))
			sep = ','
		}
		if s.Seed != 0 {
			fmt.Fprintf(&b, "%cseed=%d", sep, s.Seed)
		}
		return b.String()
	}
	data, err := json.Marshal(s)
	if err != nil {
		return s.Name // unreachable for a validated spec
	}
	return string(data)
}

// The registrations below migrate every chooser in this package onto
// the registry (the behavior-preservation cross-check in model_test.go
// pins each one byte-identical to its hand-wired original) and add the
// stochastic family (uniform, markov, noisy — see stochastic.go).
func init() {
	RegisterModel(&Model{
		Name: "uniform", Doc: "seeded uniform-random choice (the default schedule source of fuzz and soak runs)",
		Stochastic: true,
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return NewUniform(spec.Seed), nil
		},
	})
	RegisterModel(&Model{
		Name: "markov", Doc: "Markov processor/priority walk: keep the current process w.p. stay, else hop with priority-proportional bias",
		Stochastic: true,
		Params:     map[string]float64{"stay": 0.75, "pribias": 1},
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return NewMarkov(spec.Seed, spec.Param("stay"), spec.Param("pribias")), nil
		},
	})
	RegisterModel(&Model{
		Name: "noisy", Doc: "Aspnes-style noisy scheduling: maximally-preempting adversarial core perturbed by a uniform random pick w.p. eps",
		Stochastic: true,
		Params:     map[string]float64{"eps": 0.1},
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return NewNoisy(spec.Seed, spec.Param("eps")), nil
		},
	})
	RegisterModel(&Model{
		Name: "rtc", Doc: "run-to-completion: finish each invocation without same-priority preemption when possible",
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return &RunToCompletion{}, nil
		},
	})
	RegisterModel(&Model{
		Name: "rotate", Doc: "maximally-preempting round-robin: switch to the next distinct process at every legal opportunity",
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return NewRotate(), nil
		},
	})
	RegisterModel(&Model{
		Name: "stagger", Doc: "the Theorem 3 quantum-stagger adversary: offset bursts of period statements at the given phase",
		Params: map[string]float64{"period": 1, "phase": 0},
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return NewStagger(int(spec.Param("period")), int(spec.Param("phase"))), nil
		},
	})
	RegisterModel(&Model{
		Name: "script", Doc: "replay an explicit decision vector, then candidate 0 (the canonical artifact form)",
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return &Script{Decisions: spec.Decisions}, nil
		},
	})
	RegisterModel(&Model{
		Name: "budgeted", Doc: "continue-current-process with directed switches at flattened (decision, choice) pairs (the budget explorer's chooser)",
		Params: map[string]float64{"budget": 0},
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			if len(spec.Decisions)%2 != 0 {
				return nil, fmt.Errorf("sched: budgeted model wants flattened (decision, choice) pairs, got %d values", len(spec.Decisions))
			}
			// The pairs may come unsorted or repeat an index: sort them,
			// keep the last pair for each index, and drop negative indices,
			// which no decision reaches.
			word := make([]Switch, 0, len(spec.Decisions)/2)
			for i := 0; i < len(spec.Decisions); i += 2 {
				if at := int64(spec.Decisions[i]); at >= 0 {
					word = append(word, Switch{At: at, Choice: spec.Decisions[i+1]})
				}
			}
			sort.SliceStable(word, func(i, j int) bool { return word[i].At < word[j].At })
			last := word[:0]
			for i, sw := range word {
				if i+1 == len(word) || word[i+1].At != sw.At {
					last = append(last, sw)
				}
			}
			return &BudgetedSwitch{SwitchAt: last, Budget: int(spec.Param("budget"))}, nil
		},
	})
	RegisterModel(&Model{
		Name: "reduced", Doc: "sleep-set reduced prefix replay (the POR explorer's chooser; sleep sets and pruning are engine-armed)",
		Params: map[string]float64{"sleepsets": 1},
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			return &Reduced{Prefix: spec.Decisions, SleepSets: spec.Param("sleepsets") != 0, Budget: 1 << 30}, nil
		},
	})
	RegisterModel(&Model{
		Name: "crash", Doc: "wrapper: inject a fixed plan of crash-stop faults around the inner model",
		Wrapper: true,
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			inner, err := newInner(spec)
			if err != nil {
				return nil, err
			}
			return NewCrash(inner, spec.Plan...), nil
		},
	})
	RegisterModel(&Model{
		Name: "randomcrash", Doc: "wrapper: seeded random crash-stop faults (max victims, per-step prob) around the inner model",
		Stochastic: true,
		Wrapper:    true,
		Params:     map[string]float64{"max": 1, "prob": 0},
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			inner, err := newInner(spec)
			if err != nil {
				return nil, err
			}
			return NewRandomCrash(inner, spec.Seed, int(spec.Param("max")), spec.Param("prob")), nil
		},
	})
	RegisterModel(&Model{
		Name: "watchdog", Doc: "wrapper: cooperative stop check every checkevery decisions (Stop is armed by the caller)",
		Wrapper: true,
		Params:  map[string]float64{"checkevery": 0},
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			inner, err := newInner(spec)
			if err != nil {
				return nil, err
			}
			return &Watchdog{Inner: inner, CheckEvery: int(spec.Param("checkevery"))}, nil
		},
	})
	RegisterModel(&Model{
		Name: "record", Doc: "wrapper: record the inner model's decisions and fired crashes for script-mode normalization",
		Wrapper: true,
		New: func(spec *ModelSpec) (sim.Chooser, error) {
			inner, err := newInner(spec)
			if err != nil {
				return nil, err
			}
			return NewRecord(inner), nil
		},
	})
}
