package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

func readSpecFile(t *testing.T) *benchmarkSpec {
	t.Helper()
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// units maps metric name to unit.
func units(m map[string]metric) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		out[k] = v.Unit
	}
	return out
}

func sameSet(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, u := range want {
		if got[k] != u {
			t.Errorf("%s: metric %s has unit %q, want %q", what, k, got[k], u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, k)
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the code's workload and
// metric lists in step.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpecFile(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q (why %q), code %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	check := func(what string, spec []string, code []metricDef) {
		if len(spec) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(spec), len(code))
		}
		for i := range spec {
			if want := code[i].name + " " + code[i].unit; spec[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json %q, code %q", what, i, spec[i], want)
			}
		}
	}
	var e2e, layers []string
	largest := 0.0
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	for _, m := range s.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// scratchDir makes a directory under the benchmark's build directory:
// on the checkout's filesystem, as the lint copy's hard links need.
func scratchDir(t *testing.T) string {
	t.Helper()
	base, err := filepath.Abs(filepath.Join("..", buildDir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(base, "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// traceEvents reads a written trace file and counts its events.
func traceEvents(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace file %s: %v", path, err)
	}
	return len(f.TraceEvents)
}

// TestWorkloadsTiny runs every workload at tiny size: set-up only,
// untraced, and traced against the same oracle, so the traced run must
// reproduce the untraced verdicts and deterministic counts. It checks
// the emitted metric names and units against BENCHMARK.json: every
// traced run, completed from the owners of the groups its workload does
// not exercise, must report every per-layer metric.
func TestWorkloadsTiny(t *testing.T) {
	s := readSpecFile(t)
	wantE2E, wantLayers := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		wantLayers[m.Name] = m.Unit
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var traced []runResult
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tmp := scratchDir(t)
			so := &env{seed: 7, workers: workers(), size: tinySize, root: root, tmp: tmp,
				orc: newOracle(), log: t.Logf, setupOnly: true}
			if res := so.measure(w, false, ""); !res.Correct || res.Error != "" || len(res.Metrics) != 0 {
				t.Fatalf("set-up-only run: correct=%v error=%q metrics=%v", res.Correct, res.Error, res.Metrics)
			}

			e := &env{seed: 7, workers: workers(), size: tinySize, root: root, tmp: tmp,
				orc: newOracle(), log: t.Logf}
			res := e.measure(w, false, "")
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failures=%v", res.Correct, res.Attempted, res.Failures)
			}
			got := units(res.Metrics)
			// Added by the parent from the child's rusage and from timing
			// set-up-only processes.
			got["peak_rss_mb"], got["setup_s"] = "MiB", "s"
			sameSet(t, "untraced", got, wantE2E)
			for k, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", k, v.Value)
				}
			}

			traceFile := filepath.Join(t.TempDir(), "trace.json")
			tres := e.measure(w, true, traceFile)
			if !tres.Correct {
				t.Fatalf("traced run: failures=%v", tres.Failures)
			}
			if n := traceEvents(t, traceFile); n < 2 {
				t.Fatalf("trace file holds %d events", n)
			}
			traced = append(traced, tres)
		})
	}
	if len(traced) != len(workloads) {
		t.Fatal("not every workload's traced run succeeded")
	}
	completeLayers(traced, func(owner string) runResult {
		t.Fatalf("helper run of %s requested although every owner ran", owner)
		return runResult{}
	})
	for _, r := range traced {
		if !r.Correct {
			t.Errorf("%s traced: failures=%v", r.Workload, r.Failures)
		}
		sameSet(t, r.Workload+" traced", units(r.Metrics), wantLayers)
	}
}

// TestHelperCompletesTrace checks that a traced run whose workload owns
// no group but its own takes the others from helper runs of their
// owners, each of which writes its owner's trace, and counts their
// checks.
func TestHelperCompletesTrace(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string, helper bool) runResult {
		e := &env{seed: 3, workers: workers(), size: tinySize, root: root, tmp: scratchDir(t),
			orc: newOracle(), log: t.Logf, helper: helper}
		return e.measure(workloadByName(name), true, filepath.Join(dir, name+".json"))
	}
	runs := []runResult{run("farm", false)}
	own, ownChecks := len(runs[0].Metrics), runs[0].Attempted
	var helpers []string
	completeLayers(runs, func(owner string) runResult {
		helpers = append(helpers, owner)
		return run(owner, true)
	})
	r := runs[0]
	if !r.Correct || len(helpers) != 3 || r.Attempted <= ownChecks {
		t.Fatalf("correct=%v helpers=%v attempted %d (farm alone %d) failures=%v",
			r.Correct, helpers, r.Attempted, ownChecks, r.Failures)
	}
	if len(r.Metrics) != len(perLayer) || own >= len(perLayer) {
		t.Errorf("farm reported %d per-layer metrics itself and %d completed, want fewer than and exactly %d",
			own, len(r.Metrics), len(perLayer))
	}
	for _, h := range helpers {
		if n := traceEvents(t, filepath.Join(dir, h+".json")); n < 2 {
			t.Errorf("helper %s's trace holds %d events", h, n)
		}
	}
}

// TestOracleCatchesWrongAnswers feeds the known-answer checks results
// that must fail.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	wrong := *tinySize
	wrong.budgetSchedules++
	e := &env{seed: 1, workers: 1, size: &wrong, root: root, tmp: t.TempDir(), orc: newOracle(), log: t.Logf}
	if res := e.measure(workloadByName("verify-budget"), false, ""); res.Correct {
		t.Fatal("verify-budget accepted a wrong schedule count")
	}
	budgetJob := farmKinds(1)[0]
	if budgetJob.want(service.Status{State: service.StateDone, Schedules: farmBudgetSchedules - 1, Legs: 7}) == nil {
		t.Fatal("farm accepted a wrong budget-check schedule count")
	}
	o := newOracle()
	o.same("op", "a")
	o.same("op", "b")
	if o.failed() != 1 {
		t.Fatal("oracle accepted a changed deterministic outcome")
	}
}

// TestCompareRule checks the paired-run rule and the quartile method.
func TestCompareRule(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5 {
		t.Fatalf("iqr = %v, want 5.5", got)
	}
	base := []float64{100, 101, 99, 100, 102, 100, 98, 101, 100, 99}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", shift(0), false, 0.05, "unchanged"},
		{"faster", shift(-10), false, 0.05, "gain"},
		{"slower", shift(10), false, 0.05, "regression"},
		{"slower within bound", shift(3), false, 0.05, "unchanged"},
		{"throughput up", shift(10), true, 0.05, "gain"},
		{"noisy", []float64{50, 150, 60, 140, 100, 100, 70, 130, 100, 100}, false, 0.05, "unresolved"},
	} {
		if got := judge(base, c.change, c.higher, c.bound, 0).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A gain needs ten pairs.
	if got := judge(base[:5], shift(-10)[:5], false, 0.05, 0).verdict; got != "unchanged" {
		t.Errorf("five pairs: %s, want unchanged", got)
	}

	// Set-up times of a few milliseconds drifting by tens of percent stay
	// under setup_s's 20 ms floor; a 50 ms slip does not.
	setup := []float64{4.1e-3, 4.5e-3, 4.0e-3, 6.9e-3, 4.2e-3, 4.4e-3, 5.0e-3, 4.1e-3, 4.3e-3, 4.6e-3}
	slower := make([]float64, len(setup))
	for i, s := range setup {
		slower[i] = 1.4*s + 0.05*float64(i%2)
	}
	floor := absFloor["setup_s"]
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"ms drift", []float64{5.5e-3, 6.1e-3, 5.2e-3, 8.7e-3, 5.9e-3, 5.4e-3, 6.5e-3, 5.3e-3, 6.0e-3, 5.8e-3}, "unchanged"},
		{"50 ms slip", slower, "unresolved"},
		{"20.1 ms slip", func() []float64 {
			out := make([]float64, len(setup))
			for i, s := range setup {
				out[i] = s + 0.0201
			}
			return out
		}(), "regression"},
	} {
		if got := judge(setup, c.change, false, 0.25, floor).verdict; got != c.want {
			t.Errorf("setup_s %s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCopyModuleSkipsBenchmark checks the lint copy holds the program
// and nothing of the benchmark or of hidden directories.
func TestCopyModuleSkipsBenchmark(t *testing.T) {
	dst := scratchDir(t)
	if err := copyModule("..", dst); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && (e.Name() == benchDir || e.Name()[0] == '.') {
			t.Errorf("copy holds %s/", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dst, "go.mod")); err != nil {
		t.Error("copy lacks go.mod")
	}
}

// TestEditLeavesOriginal checks that editing a file of the linked copy,
// as a lint pass does, leaves the original's content alone.
func TestEditLeavesOriginal(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	orig := filepath.Join(src, "a.go")
	if err := os.WriteFile(orig, []byte("package a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := copyModule(src, dst); err != nil {
		t.Fatal(err)
	}
	if err := replaceFile(filepath.Join(dst, "a.go"), []byte("package a\n// edit\n")); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(orig); err != nil || string(data) != "package a\n" {
		t.Fatalf("original now reads %q (err %v)", data, err)
	}
	if data, err := os.ReadFile(filepath.Join(dst, "a.go")); err != nil || string(data) != "package a\n// edit\n" {
		t.Fatalf("copy reads %q (err %v)", data, err)
	}
}
