package check_test

import (
	"encoding/json"
	"testing"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sched"
)

// fuzzModelRows pins one representative spec per registered scheduler
// model for the replay-determinism matrix, plus the crash row: a fixed
// fault plan in Meta.Crashes, the way explorers, replays and jobs
// inject planned faults, under a stochastic model. The randomcrash row
// nests a stochastic inner model.
var fuzzModelRows = []struct {
	name    string
	spec    string
	crashes []sched.CrashPoint
}{
	{"uniform", "uniform:seed=11", nil},
	{"markov", "markov:stay=0.8,seed=4", nil},
	{"noisy", "noisy:eps=0.15,seed=6", nil},
	{"rtc", "rtc", nil},
	{"rotate", "rotate", nil},
	{"stagger", "stagger:period=2,phase=1", nil},
	{"script", `{"name":"script","decisions":[1,0,1,1,0,1]}`, nil},
	{"randomcrash", `{"name":"randomcrash","seed":9,"params":{"max":1,"prob":0.05},"inner":{"name":"markov","seed":2}}`, nil},
	{"crash", "uniform:seed=3", []sched.CrashPoint{{Proc: 1, Step: 6}}},
}

// fuzzOutcome is the byte-comparable outcome of one model fuzz sweep.
type fuzzOutcome struct {
	Schedules       int
	ViolationsTotal int
	Violations      []struct {
		Schedule  string
		Err       string
		Decisions []int
	}
	Progress *check.ProgressStats
}

func runModelFuzz(t *testing.T, meta artifact.Meta, spec *sched.ModelSpec, bound int64, parallelism int) fuzzOutcome {
	t.Helper()
	build, err := check.BuilderFor(meta)
	if err != nil {
		t.Fatal(err)
	}
	res := check.Fuzz(build, 30, check.Options{
		MaxSchedules:     30,
		Parallelism:      parallelism,
		SchedModel:       spec,
		Measure:          true,
		CollectDecisions: true,
		WaitFreeBound:    bound,
	})
	out := fuzzOutcome{
		Schedules:       res.Schedules,
		ViolationsTotal: res.ViolationsTotal,
		Progress:        res.Progress,
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, struct {
			Schedule  string
			Err       string
			Decisions []int
		}{v.Schedule, v.Err.Error(), v.Decisions})
	}
	return out
}

// TestFuzzModelDeterminismMatrix is the satellite replay-determinism
// matrix: for every registered scheduler model, the same spec and seed
// range produce identical decision traces, verdicts, and measurement
// histograms at Parallelism 1 and 4 — including the randomcrash and
// crash rows — and every recorded violation trace replays to
// the same verdict through the script model.
func TestFuzzModelDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep is not short")
	}
	// The lockcounter negative control under a tight bound produces
	// violations, so verdict determinism is exercised, not just counts.
	const bound = 200
	for _, row := range fuzzModelRows {
		t.Run(row.name, func(t *testing.T) {
			meta := artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000, Crashes: row.crashes}
			spec, err := sched.ParseModelSpec(row.spec)
			if err != nil {
				t.Fatalf("ParseModelSpec(%q): %v", row.spec, err)
			}
			seq := runModelFuzz(t, meta, spec, bound, 1)
			par := runModelFuzz(t, meta, spec, bound, 4)
			a, _ := json.Marshal(seq)
			b, _ := json.Marshal(par)
			if string(a) != string(b) {
				t.Errorf("P=1 and P=4 sweeps differ\n seq: %s\n par: %s", a, b)
			}
			// Every recorded violation replays to the same verdict
			// through the script model, the planned crashes with it
			// (randomcrash's fired crashes are part of the
			// decision-trace determinism above, not of the replay).
			if spec.Name != "randomcrash" {
				for _, v := range seq.Violations {
					replay := runModelFuzz(t, meta, &sched.ModelSpec{Name: "script", Decisions: v.Decisions}, bound, 1)
					if replay.ViolationsTotal == 0 {
						t.Errorf("violation %q did not reproduce via script replay", v.Schedule)
					}
				}
			}
		})
	}
}

// TestMeasureGap pins the headline empirical claim: under the same
// stochastic scheduler, the provably wait-free unicons respects its
// declared per-invocation bound at every percentile, while the
// lockcounter negative control starves — censored samples appear and
// the observed maximum blows past unicons's whole tail.
func TestMeasureGap(t *testing.T) {
	uniMeta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 14}
	lcMeta := artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 4000}
	spec, err := sched.ParseModelSpec("uniform:seed=1")
	if err != nil {
		t.Fatal(err)
	}
	uni := runModelFuzz(t, uniMeta, spec, 0, 2)
	lc := runModelFuzz(t, lcMeta, spec, 0, 2)
	if uni.Progress == nil || lc.Progress == nil {
		t.Fatalf("missing progress stats: %+v %+v", uni.Progress, lc.Progress)
	}
	if uni.Progress.Samples == 0 || lc.Progress.Samples+lc.Progress.Censored == 0 {
		t.Fatalf("empty measurement: uni=%+v lc=%+v", uni.Progress, lc.Progress)
	}
	if b := artifact.DeclaredBound(uniMeta); b > 0 && uni.Progress.Max > b {
		t.Errorf("unicons measured max %d exceeds declared bound %d", uni.Progress.Max, b)
	}
	if uni.Progress.Censored != 0 {
		t.Errorf("unicons left %d invocations unfinished under a uniform scheduler", uni.Progress.Censored)
	}
	if lc.Progress.Censored == 0 {
		t.Errorf("lockcounter negative control shows no censored (starved) invocations: %+v", lc.Progress)
	}
	if lc.Progress.Max < 2*uni.Progress.Max {
		t.Errorf("no measured starvation gap: lockcounter max %d vs unicons max %d", lc.Progress.Max, uni.Progress.Max)
	}
}

// TestMeasureLegacyPath pins that Measure works with SchedModel nil,
// which is the uniform model at seed 0, and stays deterministic across
// parallelism there too.
func TestMeasureLegacyPath(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 14}
	seq := runModelFuzz(t, meta, nil, 0, 1)
	par := runModelFuzz(t, meta, nil, 0, 4)
	uni := runModelFuzz(t, meta, &sched.ModelSpec{Name: "uniform"}, 0, 1)
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	u, _ := json.Marshal(uni)
	if string(a) != string(b) {
		t.Errorf("nil-model measurement differs across parallelism\n seq: %s\n par: %s", a, b)
	}
	if string(a) != string(u) {
		t.Errorf("nil model differs from uniform at seed 0\n nil:     %s\n uniform: %s", a, u)
	}
	if seq.Progress == nil || seq.Progress.Runs != 30 {
		t.Errorf("expected 30 measured runs, got %+v", seq.Progress)
	}
}
