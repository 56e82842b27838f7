package sched_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
	"repro/internal/sim"
)

// modelMatrix pins, for every registered scheduler model, a ModelSpec
// and the hand-wired chooser construction it migrated from. The
// cross-check below runs both over pinned workloads and demands
// byte-identical decision traces, fired crashes, fingerprints, and
// verdicts — the behavior-preservation proof for the registry
// refactor. Adding a model without a row here fails
// TestEveryModelCovered.
var modelMatrix = []struct {
	name string // registered model the row covers
	spec string // ParseModelSpec input (compact or JSON form)
	wire func() sim.Chooser
}{
	{"uniform", "uniform:seed=7", func() sim.Chooser { return sched.NewUniform(7) }},
	{"markov", "markov:pribias=2,stay=0.6,seed=3", func() sim.Chooser { return sched.NewMarkov(3, 0.6, 2) }},
	{"noisy", "noisy:eps=0.2,seed=5", func() sim.Chooser { return sched.NewNoisy(5, 0.2) }},
	{"rtc", "rtc", func() sim.Chooser { return &sched.RunToCompletion{} }},
	{"rotate", "rotate", func() sim.Chooser { return sched.NewRotate() }},
	{"stagger", "stagger:period=2,phase=1", func() sim.Chooser { return sched.NewStagger(2, 1) }},
	{"script", `{"name":"script","decisions":[1,0,1,1,0,2,1,0]}`,
		func() sim.Chooser { return &sched.Script{Decisions: []int{1, 0, 1, 1, 0, 2, 1, 0}} }},
	{"budgeted", `{"name":"budgeted","params":{"budget":2},"decisions":[3,1,9,0]}`,
		func() sim.Chooser {
			return &sched.BudgetedSwitch{SwitchAt: []sched.Switch{{At: 3, Choice: 1}, {At: 9, Choice: 0}}, Budget: 2}
		}},
	{"reduced", `{"name":"reduced","decisions":[1,0,1]}`,
		func() sim.Chooser { return &sched.Reduced{Prefix: []int{1, 0, 1}, SleepSets: true, Budget: 1 << 30} }},
	{"crash", `{"name":"crash","plan":[{"Proc":1,"Step":5}],"inner":{"name":"uniform","seed":7}}`,
		func() sim.Chooser { return sched.NewCrash(sched.NewUniform(7), sched.CrashPoint{Proc: 1, Step: 5}) }},
	{"randomcrash", `{"name":"randomcrash","seed":11,"params":{"max":1,"prob":0.05},"inner":{"name":"uniform","seed":7}}`,
		func() sim.Chooser { return sched.NewRandomCrash(sched.NewUniform(7), 11, 1, 0.05) }},
	{"watchdog", `{"name":"watchdog","params":{"checkevery":16},"inner":{"name":"uniform","seed":7}}`,
		func() sim.Chooser { return &sched.Watchdog{Inner: sched.NewUniform(7), CheckEvery: 16} }},
	{"record", `{"name":"record","inner":{"name":"uniform","seed":7}}`,
		func() sim.Chooser { return sched.NewRecord(sched.NewUniform(7)) }},
}

// modelWorkloads are the pinned workloads every matrix row runs under:
// a quantum-scheduled consensus workload and the lockcounter negative
// control (which starves under hostile schedules, exercising long
// runs, preemption patterns, and — with the crash wrappers — fault
// delivery).
var modelWorkloads = []artifact.Meta{
	{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 16},
	{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000},
}

// trace is the byte-comparable outcome of one recorded run.
type trace struct {
	Taken       []int
	Fanouts     []int
	Fired       []sched.CrashPoint
	Fingerprint uint64
	Err         string
}

// runRecorded runs meta under a Record-wrapped chooser and returns the
// full observable outcome.
func runRecorded(t *testing.T, meta artifact.Meta, ch sim.Chooser) trace {
	t.Helper()
	rec := sched.NewRecord(ch)
	sys, finish, err := artifact.Build(meta, rec, nil)
	if err != nil {
		t.Fatalf("Build(%s): %v", meta.Workload, err)
	}
	runErr := finish(sys.Run())
	tr := trace{
		Taken:       append([]int(nil), rec.Taken...),
		Fanouts:     append([]int(nil), rec.Fanouts...),
		Fired:       append([]sched.CrashPoint(nil), rec.Fired...),
		Fingerprint: sys.Fingerprint(),
	}
	if runErr != nil {
		tr.Err = runErr.Error()
	}
	return tr
}

// TestModelCrossCheck is the behavior-preservation pin: for every
// registered model, the registry-built chooser and the pre-refactor
// hand-wired chooser produce byte-identical traces over the pinned
// workloads.
func TestModelCrossCheck(t *testing.T) {
	for _, row := range modelMatrix {
		t.Run(row.name, func(t *testing.T) {
			spec, err := sched.ParseModelSpec(row.spec)
			if err != nil {
				t.Fatalf("ParseModelSpec(%q): %v", row.spec, err)
			}
			if spec.Name != row.name {
				t.Fatalf("spec %q parsed to model %q, row says %q", row.spec, spec.Name, row.name)
			}
			for _, meta := range modelWorkloads {
				built, err := sched.NewFromSpec(spec)
				if err != nil {
					t.Fatalf("NewFromSpec(%s): %v", spec, err)
				}
				got := runRecorded(t, meta, built)
				want := runRecorded(t, meta, row.wire())
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(want)
				if string(gotJSON) != string(wantJSON) {
					t.Errorf("%s under %s: registry and hand-wired traces differ\n registry: %s\n wired:    %s",
						row.name, meta.Workload, gotJSON, wantJSON)
				}
			}
		})
	}
}

// TestBudgetedModelPairsActAsMap: the budgeted model reads its
// flattened (decision, choice) pairs as a map from decision index to
// choice, so pairs in any order, a repeated index (the last pair wins)
// and a negative index (never reached) run exactly as the sorted switch
// word they describe.
func TestBudgetedModelPairsActAsMap(t *testing.T) {
	spec, err := sched.ParseModelSpec(`{"name":"budgeted","params":{"budget":2},"decisions":[9,1,3,0,-2,1,3,1,9,0]}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, meta := range modelWorkloads {
		built, err := sched.NewFromSpec(spec)
		if err != nil {
			t.Fatalf("NewFromSpec(%s): %v", spec, err)
		}
		got := runRecorded(t, meta, built)
		want := runRecorded(t, meta, &sched.BudgetedSwitch{SwitchAt: []sched.Switch{{At: 3, Choice: 1}, {At: 9, Choice: 0}}, Budget: 2})
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s: unsorted pairs and the sorted word differ\n pairs: %s\n word:  %s", meta.Workload, gotJSON, wantJSON)
		}
	}
}

// TestEveryModelCovered fails when a registered model has no matrix
// row, so the cross-check can't silently rot as models are added.
func TestEveryModelCovered(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range modelMatrix {
		covered[row.name] = true
	}
	for _, name := range sched.Models() {
		if !covered[name] {
			t.Errorf("registered model %q has no modelMatrix cross-check row", name)
		}
	}
}

// TestSpecStringRoundTrip pins that String() output re-parses to a
// spec that builds the identical chooser (same trace), for both the
// compact and JSON forms.
func TestSpecStringRoundTrip(t *testing.T) {
	for _, row := range modelMatrix {
		spec, err := sched.ParseModelSpec(row.spec)
		if err != nil {
			t.Fatalf("ParseModelSpec(%q): %v", row.spec, err)
		}
		s := spec.String()
		back, err := sched.ParseModelSpec(s)
		if err != nil {
			t.Fatalf("%s: String() %q does not re-parse: %v", row.name, s, err)
		}
		a, _ := json.Marshal(spec)
		b, _ := json.Marshal(back)
		if string(a) != string(b) {
			t.Errorf("%s: round trip changed the spec\n before: %s\n after:  %s", row.name, a, b)
		}
	}
	// A seed past float64's 53 bits survives the compact form exactly.
	const big = 1<<53 + 1
	spec, err := sched.ParseModelSpec((&sched.ModelSpec{Name: "uniform", Seed: big}).String())
	if err != nil || spec.Seed != big {
		t.Errorf("uniform seed %d round-tripped to %v (err %v)", int64(big), spec, err)
	}
}

// TestReseedEquivalence pins the Reseedable contract for the
// stochastic models: Reseed(s) on a used chooser equals a fresh build
// with seed s.
func TestReseedEquivalence(t *testing.T) {
	meta := modelWorkloads[0]
	for _, name := range []string{"uniform", "markov", "noisy"} {
		spec, err := sched.ParseModelSpec(name + ":seed=99")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sched.NewFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := runRecorded(t, meta, fresh)

		dirty, err := sched.NewFromSpec(&sched.ModelSpec{Name: name, Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		runRecorded(t, meta, dirty) // burn state
		rs, ok := dirty.(sched.Reseedable)
		if !ok {
			t.Fatalf("%s chooser does not implement Reseedable", name)
		}
		rs.Reseed(99)
		got := runRecorded(t, meta, dirty)
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if string(a) != string(b) {
			t.Errorf("%s: Reseed(99) differs from fresh seed 99\n reseed: %s\n fresh:  %s", name, a, b)
		}
	}
}

// TestRecordedTraceReplays pins script-mode normalization for the
// stochastic family: a recorded stochastic run replayed through the
// script model (with fired crashes replayed through the crash wrapper)
// reproduces the identical fingerprint and verdict.
func TestRecordedTraceReplays(t *testing.T) {
	for _, name := range []string{"uniform", "markov", "noisy"} {
		for _, meta := range modelWorkloads {
			spec := &sched.ModelSpec{Name: name, Seed: 42}
			ch, err := sched.NewFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			orig := runRecorded(t, meta, ch)

			replay := &sched.ModelSpec{Name: "script", Decisions: orig.Taken}
			rch, err := sched.NewFromSpec(replay)
			if err != nil {
				t.Fatal(err)
			}
			got := runRecorded(t, meta, rch)
			if got.Fingerprint != orig.Fingerprint || got.Err != orig.Err {
				t.Errorf("%s under %s: script replay diverged: fp %#x/%#x err %q/%q",
					name, meta.Workload, got.Fingerprint, orig.Fingerprint, got.Err, orig.Err)
			}
		}
	}
}

// TestWithRunSeed pins the per-run seed derivation: deterministic,
// distinct across runs, derived independently per wrapper depth, and
// leaving the input spec untouched.
func TestWithRunSeed(t *testing.T) {
	spec, err := sched.ParseModelSpec(`{"name":"randomcrash","seed":3,"params":{"max":1},"inner":{"name":"markov","seed":9}}`)
	if err != nil {
		t.Fatal(err)
	}
	r1 := spec.WithRunSeed(0)
	r1b := spec.WithRunSeed(0)
	r2 := spec.WithRunSeed(1)
	if a, b := fmt.Sprint(r1), fmt.Sprint(r1b); a != b {
		t.Errorf("WithRunSeed not deterministic: %s vs %s", a, b)
	}
	if r1.Seed == r2.Seed || r1.Inner.Seed == r2.Inner.Seed {
		t.Errorf("WithRunSeed(0) and (1) share seeds: %+v vs %+v", r1, r2)
	}
	if r1.Seed == r1.Inner.Seed {
		t.Errorf("wrapper and inner derived the same seed %d", r1.Seed)
	}
	if spec.Seed != 3 || spec.Inner.Seed != 9 {
		t.Errorf("WithRunSeed mutated the input spec: %+v", spec)
	}
}

// TestSpecValidation pins the registry's rejection surface.
func TestSpecValidation(t *testing.T) {
	bad := []string{
		"",                    // empty
		"nosuchmodel",         // unknown name
		"markov:warp=2",       // unknown parameter
		"markov:stay",         // malformed key=value
		"markov:stay=fast",    // non-numeric value
		`{"name":"watchdog"}`, // wrapper without inner
		`{"name":"rtc","inner":{"name":"rotate"}}`, // inner on a non-wrapper
		`{"name":"budgeted","decisions":[1,2,3]}`,  // odd switch-word length (caught at build)
	}
	for _, s := range bad {
		spec, err := sched.ParseModelSpec(s)
		if err == nil {
			if _, err = sched.NewFromSpec(spec); err == nil {
				t.Errorf("ParseModelSpec+NewFromSpec(%q) accepted invalid spec", s)
			}
		}
	}
	for _, s := range []string{"uniform", "markov:stay=0.9", "noisy:eps=0.05,seed=12"} {
		if _, err := sched.ParseModelSpec(s); err != nil {
			t.Errorf("ParseModelSpec(%q): %v", s, err)
		}
	}
	// "random" names no model; the seeded uniform chooser is "uniform".
	for _, s := range []string{"random", `{"name":"random","seed":7}`} {
		if _, err := sched.ParseModelSpec(s); err == nil || !strings.Contains(err.Error(), "unknown scheduler model") {
			t.Errorf("ParseModelSpec(%q) = %v, want an unknown-model error", s, err)
		}
	}
}

// readsLog reports whether a spec tree has a reduced model with sleep
// sets on: the one chooser that reads sim.Decision.Since.
func readsLog(spec *sched.ModelSpec) bool {
	for node := spec; node != nil; node = node.Inner {
		if node.Name == "reduced" && node.Param("sleepsets") != 0 {
			return true
		}
	}
	return false
}

// TestReadsSinceForwarding pins that a run which reads the access log
// always gets it: every matrix row, and nested wrappers around the
// reduced model, reports through sim.ReadsSince exactly when its spec
// tree reads the log, and reports the same wrapped in Record and in
// Watchdog.
func TestReadsSinceForwarding(t *testing.T) {
	specs := make([]string, 0, len(modelMatrix)+4)
	for _, row := range modelMatrix {
		specs = append(specs, row.spec)
	}
	specs = append(specs,
		`{"name":"reduced","params":{"sleepsets":0}}`,
		`{"name":"record","inner":{"name":"watchdog","inner":{"name":"reduced"}}}`,
		`{"name":"randomcrash","inner":{"name":"crash","inner":{"name":"reduced"}}}`,
		`{"name":"record","inner":{"name":"reduced","params":{"sleepsets":0}}}`,
	)
	for _, s := range specs {
		spec, err := sched.ParseModelSpec(s)
		if err != nil {
			t.Fatalf("ParseModelSpec(%q): %v", s, err)
		}
		ch, err := sched.NewFromSpec(spec)
		if err != nil {
			t.Fatalf("NewFromSpec(%s): %v", spec, err)
		}
		want := readsLog(spec)
		if got := sim.ReadsSince(ch); got != want {
			t.Errorf("%s: ReadsSince = %v, want %v", spec, got, want)
		}
		wrapped := []struct {
			name string
			ch   sim.Chooser
		}{
			{"record", sched.NewRecord(ch)},
			{"watchdog", &sched.Watchdog{Inner: ch}},
		}
		for _, w := range wrapped {
			if got := sim.ReadsSince(w.ch); got != want {
				t.Errorf("%s in %s: ReadsSince = %v, want %v", spec, w.name, got, want)
			}
		}
	}
}
