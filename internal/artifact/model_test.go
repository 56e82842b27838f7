package artifact_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
)

var modelMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 16}

// TestModelBundleRoundTrip pins the model-mode serialization: a bundle
// carrying a scheduler-model spec saves, loads back byte-identically,
// and replays deterministically.
func TestModelBundleRoundTrip(t *testing.T) {
	spec, err := sched.ParseModelSpec("markov:stay=0.8,seed=21")
	if err != nil {
		t.Fatal(err)
	}
	b, rep, err := artifact.Capture(modelMeta, artifact.Sched{Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != artifact.Version {
		t.Fatalf("captured bundle version %d, want %d", b.Version, artifact.Version)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := artifact.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(b)
	bb, _ := json.Marshal(got)
	if string(a) != string(bb) {
		t.Errorf("round trip changed the bundle\n saved:  %s\n loaded: %s", a, bb)
	}
	rep2, err := artifact.Replay(got, artifact.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if errText(rep.Err) != errText(rep2.Err) || rep.Steps != rep2.Steps {
		t.Errorf("replay diverged: (%q, %d) vs (%q, %d)", errText(rep.Err), rep.Steps, errText(rep2.Err), rep2.Steps)
	}
}

// TestModelSeedOverride pins that Sched.Seed overrides the model
// spec's own seed: (spec seed s, override 0) equals (spec seed 0,
// override s) and differs from other seeds.
func TestModelSeedOverride(t *testing.T) {
	run := func(specSeed, override int64) *artifact.Report {
		spec := &sched.ModelSpec{Name: "uniform", Seed: specSeed}
		b := &artifact.Bundle{Version: artifact.Version, Meta: modelMeta, Sched: artifact.Sched{Model: spec, Seed: override}}
		rep, err := artifact.Replay(b, artifact.ReplayOptions{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	direct := run(17, 0)
	overridden := run(3, 17)
	a, _ := json.Marshal(direct.Decisions)
	b, _ := json.Marshal(overridden.Decisions)
	if string(a) != string(b) {
		t.Errorf("seed override diverged from direct seed: %s vs %s", a, b)
	}
	other := run(18, 0)
	c, _ := json.Marshal(other.Decisions)
	if string(a) == string(c) {
		t.Errorf("seeds 17 and 18 produced identical decision traces")
	}
}

// TestModelLegacyEquivalence pins the Random shorthand: a Random
// bundle and a model-mode bundle naming the uniform model (same seeds,
// same crash knobs) replay byte-identically and normalize to
// byte-identical script bundles.
func TestModelLegacyEquivalence(t *testing.T) {
	meta := modelMeta
	legacy := &artifact.Bundle{Version: artifact.Version, Meta: meta,
		Sched: artifact.Sched{Random: true, Seed: 5, CrashSeed: 9, MaxCrashes: 1, CrashProb: 0.05}}
	model := &artifact.Bundle{Version: artifact.Version, Meta: meta,
		Sched: artifact.Sched{Model: &sched.ModelSpec{Name: "uniform"}, Seed: 5, CrashSeed: 9, MaxCrashes: 1, CrashProb: 0.05}}

	lr, err := artifact.Replay(legacy, artifact.ReplayOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := artifact.Replay(model, artifact.ReplayOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(struct {
		Dec   []int
		Fired []sched.CrashPoint
		Steps int64
		Err   string
	}{lr.Decisions, lr.Fired, lr.Steps, errText(lr.Err)})
	b, _ := json.Marshal(struct {
		Dec   []int
		Fired []sched.CrashPoint
		Steps int64
		Err   string
	}{mr.Decisions, mr.Fired, mr.Steps, errText(mr.Err)})
	if string(a) != string(b) {
		t.Errorf("legacy and model replays differ\n legacy: %s\n model:  %s", a, b)
	}

	ln, err := artifact.Normalize(legacy)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := artifact.Normalize(model)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := json.Marshal(ln)
	ma, _ := json.Marshal(mn)
	if string(la) != string(ma) {
		t.Errorf("normalized bundles differ\n legacy: %s\n model:  %s", la, ma)
	}
}

// TestReplayRefusesOldStreams: a bundle written before version 3 that
// re-derives its run from seeds (the Random shorthand, a model, or
// soakmix's Meta.WorkSeed) drew the math/rand streams, so Replay
// refuses it instead of replaying another run under its name. An old
// script-mode bundle without a WorkSeed still replays: its run is its
// decision vector.
func TestReplayRefusesOldStreams(t *testing.T) {
	soak := artifact.Meta{Workload: "soakmix", N: 2, V: 1, Quantum: 24, WorkSeed: 7}
	for _, version := range []int{1, 2} {
		for _, tc := range []struct {
			name string
			b    *artifact.Bundle
		}{
			{"random", &artifact.Bundle{Meta: modelMeta, Sched: artifact.Sched{Random: true, Seed: 5}}},
			{"model", &artifact.Bundle{Meta: modelMeta, Sched: artifact.Sched{Model: &sched.ModelSpec{Name: "uniform", Seed: 5}}}},
			{"script with work seed", &artifact.Bundle{Meta: soak, Sched: artifact.Sched{Decisions: []int{1, 0, 1}}}},
		} {
			tc.b.Version = version
			if _, err := artifact.Replay(tc.b, artifact.ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "math/rand") {
				t.Errorf("version %d %s bundle: Replay err = %v, want a math/rand stream refusal", version, tc.name, err)
			}
			tc.b.Version = artifact.Version
			if _, err := artifact.Replay(tc.b, artifact.ReplayOptions{}); err != nil {
				t.Errorf("version %d %s bundle: Replay: %v", artifact.Version, tc.name, err)
			}
		}
		script := &artifact.Bundle{Version: version, Meta: modelMeta, Sched: artifact.Sched{Decisions: []int{1, 0, 1}}}
		if _, err := artifact.Replay(script, artifact.ReplayOptions{}); err != nil {
			t.Errorf("version %d script bundle refused: %v", version, err)
		}
	}
}

// TestModelLoadRejects pins the load-time rejection surface for model
// bundles: unknown models and malformed specs fail Load, and
// version-1 bundles still load.
func TestModelLoadRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := artifact.Load(write("v1.json",
		`{"version":1,"meta":{"workload":"unicons","n":2,"quantum":2},"sched":{"random":true,"seed":3}}`)); err != nil {
		t.Errorf("version-1 bundle rejected: %v", err)
	}
	if _, err := artifact.Load(write("badmodel.json",
		`{"version":2,"meta":{"workload":"unicons","n":2,"quantum":2},"sched":{"model":{"name":"nosuch"}}}`)); err == nil || !strings.Contains(err.Error(), "unknown scheduler model") {
		t.Errorf("unknown model accepted: %v", err)
	}
	if _, err := artifact.Load(write("badparam.json",
		`{"version":2,"meta":{"workload":"unicons","n":2,"quantum":2},"sched":{"model":{"name":"markov","params":{"warp":1}}}}`)); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("unknown model parameter accepted: %v", err)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
