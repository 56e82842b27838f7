package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/durable"
	"repro/internal/unicons"
)

// testDerive is a fast deterministic campaign: most indices replay a
// clean unicons run (every third one with a seeded crash-stop fault so
// the Crashes accounting is exercised), and every fifth-plus-three
// index replays the committed lockcounter wait-freedom violation — a
// deterministic, index-addressed failure the resume tests can count.
func testDerive(idx int64) (artifact.Meta, artifact.Sched) {
	if idx%5 == 3 {
		return artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 1,
				MaxSteps: 2000, WaitFreeBound: 50},
			artifact.Sched{Decisions: []int{0, 1}}
	}
	s := artifact.Sched{Random: true, Seed: idx + 1}
	if idx%3 == 1 {
		s.MaxCrashes = 1
		s.CrashSeed = idx*11 + 5
	}
	return artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: unicons.MinQuantum,
		MaxSteps: 1 << 16}, s
}

// cleanDerive is testDerive without the planted violations.
func cleanDerive(idx int64) (artifact.Meta, artifact.Sched) { return testDerive(5 * idx) }

// violIdx lists the testDerive violation indices below n.
func violIdx(n int64) []int64 {
	var out []int64
	for i := int64(0); i < n; i++ {
		if i%5 == 3 {
			out = append(out, i)
		}
	}
	return out
}

// TestCampaignEphemeral: a state-less campaign runs every index,
// records the planted violations by index, and keeps going past them.
func TestCampaignEphemeral(t *testing.T) {
	res, err := Run(Config{Runs: 12, Parallel: 3, Derive: testDerive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || res.JournalDegraded {
		t.Fatalf("ephemeral full campaign: interrupted=%v degraded=%v", res.Interrupted, res.JournalDegraded)
	}
	s := res.State
	if s.Runs != 12 || s.NextIdx != 12 || len(s.Extras) != 0 || s.TimedOut != 0 {
		t.Fatalf("state: %+v", s)
	}
	// Every planted lockcounter index must be recorded; crash-injected
	// unicons runs may legitimately add more (deterministically).
	found := map[int64]string{}
	for _, v := range s.Violations {
		found[v.Idx] = v.Err
		if v.Artifact != "" {
			t.Fatalf("artifact path %q recorded without an artifact dir", v.Artifact)
		}
	}
	for _, idx := range violIdx(12) {
		if !strings.Contains(found[idx], "wait-freedom violated") {
			t.Fatalf("planted violation at %d missing or wrong: %+v", idx, s.Violations)
		}
	}
}

// stopAfter returns a Derive wrapper that closes the returned channel
// once n runs have been handed out — a deterministic-enough graceful
// interruption point for resume tests.
func stopAfter(n int64) (<-chan struct{}, func(int64) (artifact.Meta, artifact.Sched)) {
	ch := make(chan struct{})
	var count atomic.Int64
	var once sync.Once
	derive := func(idx int64) (artifact.Meta, artifact.Sched) {
		if count.Add(1) >= n {
			once.Do(func() { close(ch) })
		}
		return testDerive(idx)
	}
	return ch, derive
}

const testRuns = 25

func testConfig(dir string) Config {
	return Config{
		Runs: testRuns, BaseSeed: 7, CrashSeed: 13, Parallel: 3,
		Derive: testDerive, StateDir: dir, CheckpointEvery: 4,
	}
}

// runLeg runs one campaign leg and fails the test on a setup error.
func runLeg(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// runKilled runs one leg in which every checkpoint write fails once
// killed reports true, so the leg ends as a SIGKILL at that moment
// would leave it: no later snapshot, and a journal tail that the last
// snapshot has not absorbed.
func runKilled(t *testing.T, cfg Config, killed func() bool) *Result {
	t.Helper()
	defer durable.SetFault(func(path string, _ durable.Step) error {
		if path == CheckpointPath(cfg.StateDir) && killed() {
			return errors.New("killed")
		}
		return nil
	})()
	return runLeg(t, cfg)
}

// closed reports whether ch has been closed.
func closed(ch <-chan struct{}) func() bool {
	return func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// lastRun sets cfg's progress hook to report once the leg has
// completed all cfg.Runs runs, the moment before its final checkpoint.
func lastRun(cfg *Config) func() bool {
	var done atomic.Bool
	runs := cfg.Runs
	cfg.ProgressEvery = runs
	cfg.Progress = func(p ProgressInfo) { done.Store(p.Runs >= runs) }
	return done.Load
}

// normState strips the resume-dependent fields (Resumed counts legs,
// artifact paths embed the state dir) so states from different
// directories compare.
func normState(s State) State {
	s = s.clone()
	s.Resumed = 0
	for i := range s.Violations {
		if s.Violations[i].Artifact != "" {
			s.Violations[i].Artifact = filepath.Base(s.Violations[i].Artifact)
		}
	}
	return s
}

// artifactFiles maps basename -> content for every file in dir.
func artifactFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// assertEquivalent is the pinned resume-determinism property: an
// interrupted-and-resumed campaign must end in exactly the
// uninterrupted campaign's state — same run count, same violations by
// index and error, same crash/timeout tallies — with byte-identical
// repro artifacts.
func assertEquivalent(t *testing.T, name string, base *Result, baseDir string, got *Result, gotDir string) {
	t.Helper()
	if got.Interrupted {
		t.Fatalf("%s: final leg still interrupted", name)
	}
	if b, g := normState(base.State), normState(got.State); !reflect.DeepEqual(b, g) {
		t.Fatalf("%s: resumed state diverged from uninterrupted:\nbase: %+v\ngot:  %+v", name, b, g)
	}
	ba := artifactFiles(t, filepath.Join(baseDir, "artifacts"))
	ga := artifactFiles(t, filepath.Join(gotDir, "artifacts"))
	if !reflect.DeepEqual(ba, ga) {
		t.Fatalf("%s: artifacts diverged: base %v, got %v", name, keys(ba), keys(ga))
	}
	if len(ba) == 0 {
		t.Fatalf("%s: no artifacts to compare", name)
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCampaignResumeEquivalence is the tentpole's pinned test: four
// interruption modes — graceful stop, hard kill (no final checkpoint),
// hard kill plus a torn journal tail, and a deleted checkpoint — each
// resumed to completion, must all converge to the uninterrupted
// campaign's exact state and artifacts.
func TestCampaignResumeEquivalence(t *testing.T) {
	baseDir := t.TempDir()
	base := runLeg(t, testConfig(baseDir))
	if base.Interrupted || len(base.State.Violations) < len(violIdx(testRuns)) {
		t.Fatalf("baseline: %+v", base.State)
	}

	t.Run("graceful", func(t *testing.T) {
		dir := t.TempDir()
		cfg := testConfig(dir)
		stop, derive := stopAfter(8)
		cfg.Stop, cfg.Derive = stop, derive
		leg1 := runLeg(t, cfg)
		if !leg1.Interrupted || leg1.State.Runs >= testRuns {
			t.Fatalf("leg1 was not interrupted: %+v", leg1.State)
		}
		leg2 := runLeg(t, testConfig(dir))
		if leg2.State.Resumed != 1 {
			t.Fatalf("leg2 did not resume: Resumed=%d", leg2.State.Resumed)
		}
		assertEquivalent(t, "graceful", base, baseDir, leg2, dir)
	})

	t.Run("hard-kill", func(t *testing.T) {
		dir := t.TempDir()
		cfg := testConfig(dir)
		stop, derive := stopAfter(8)
		cfg.Stop, cfg.Derive = stop, derive
		leg1 := runKilled(t, cfg, closed(stop)) // simulate SIGKILL: journal tail survives un-checkpointed
		if !leg1.Interrupted {
			t.Fatalf("leg1 was not interrupted: %+v", leg1.State)
		}
		leg2 := runLeg(t, testConfig(dir))
		assertEquivalent(t, "hard-kill", base, baseDir, leg2, dir)
	})

	t.Run("torn-tail", func(t *testing.T) {
		dir := t.TempDir()
		cfg := testConfig(dir)
		stop, derive := stopAfter(8)
		cfg.Stop, cfg.Derive = stop, derive
		runKilled(t, cfg, closed(stop))
		// Tear the journal mid-record, as a crash mid-write would.
		jp := JournalPath(dir)
		if info, err := os.Stat(jp); err != nil {
			t.Fatal(err)
		} else if info.Size() > 3 {
			if err := os.Truncate(jp, info.Size()-3); err != nil {
				t.Fatal(err)
			}
		}
		leg2 := runLeg(t, testConfig(dir))
		assertEquivalent(t, "torn-tail", base, baseDir, leg2, dir)
	})

	t.Run("checkpoint-deleted", func(t *testing.T) {
		dir := t.TempDir()
		cfg := testConfig(dir)
		stop, derive := stopAfter(8)
		cfg.Stop, cfg.Derive = stop, derive
		runKilled(t, cfg, closed(stop))
		// Lose the checkpoint entirely: the journal alone must recover
		// (post-compaction records replay; compacted-away runs re-run
		// deterministically to the same outcomes).
		os.Remove(CheckpointPath(dir))
		leg2 := runLeg(t, testConfig(dir))
		assertEquivalent(t, "checkpoint-deleted", base, baseDir, leg2, dir)
	})
}

// TestCampaignConcurrentCheckpoints: with eight workers and a
// checkpoint after every run, workers cross the cadence together all
// the time. Every hard-killed leg must still leave a checkpoint that
// loads. Two writers sharing the checkpoint's temporary file used to
// interleave their writes, so a kill could leave a renamed, torn
// snapshot.
func TestCampaignConcurrentCheckpoints(t *testing.T) {
	const runs = 48
	for try := 0; try < 100; try++ {
		dir := t.TempDir()
		cfg := Config{Runs: runs, Parallel: 8, Derive: cleanDerive, StateDir: dir, CheckpointEvery: 1}
		killed := lastRun(&cfg)
		runKilled(t, cfg, killed)
		cp, err := LoadCheckpoint(dir)
		if err != nil {
			t.Fatalf("try %d: hard-killed leg left an unreadable checkpoint: %v", try, err)
		}
		if cp == nil || cp.State.Runs > runs {
			t.Fatalf("try %d: checkpoint %+v", try, cp)
		}
	}
}

// TestCampaignResumeNothingToDo: resuming a completed campaign runs
// zero new runs and reports the same result.
func TestCampaignResumeNothingToDo(t *testing.T) {
	dir := t.TempDir()
	first := runLeg(t, testConfig(dir))
	again := runLeg(t, testConfig(dir))
	if again.State.Resumed != 1 {
		t.Fatalf("Resumed=%d, want 1", again.State.Resumed)
	}
	if !reflect.DeepEqual(normState(first.State), normState(again.State)) {
		t.Fatalf("re-running a complete campaign changed its state:\n%+v\n%+v", first.State, again.State)
	}
}

// TestCampaignIdentityMismatch: a state dir refuses a campaign with
// different seeds instead of silently mixing incompatible runs.
func TestCampaignIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	runLeg(t, testConfig(dir))
	cfg := testConfig(dir)
	cfg.BaseSeed = 999
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("identity mismatch not rejected: %v", err)
	}
}

// TestCampaignRefusesOldCheckpoint: a state directory whose checkpoint
// predates the current stream version (its runs were derived from the
// math/rand streams) is refused on resume, not re-derived under the
// current streams.
func TestCampaignRefusesOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	runLeg(t, testConfig(dir))
	cp, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = checkpointVersion - 1
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testConfig(dir)); err == nil || !strings.Contains(err.Error(), "math/rand") {
		t.Fatalf("old checkpoint not refused: %v", err)
	}
}

// TestCampaignStopOnViolation: classic soak behavior — stop at the
// first violation, which at Parallelism 1 is exactly run index 3.
func TestCampaignStopOnViolation(t *testing.T) {
	res, err := Run(Config{Runs: testRuns, Parallel: 1, Derive: testDerive, StopOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("StopOnViolation did not interrupt the campaign")
	}
	if res.State.Runs != 4 || len(res.State.Violations) != 1 || res.State.Violations[0].Idx != 3 {
		t.Fatalf("state: %+v", res.State)
	}
}

// TestCampaignStopOnViolationResume: a stop-at-first campaign killed
// after it journaled its violation, but before its final checkpoint,
// resumes to the uninterrupted campaign's state instead of running on
// to the next violation.
func TestCampaignStopOnViolationResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Runs: testRuns, Parallel: 1, Derive: testDerive, StateDir: dir, StopOnViolation: true}
	found := make(chan struct{})
	leg := cfg
	leg.Derive = func(idx int64) (artifact.Meta, artifact.Sched) {
		if idx == 3 {
			close(found)
		}
		return testDerive(idx)
	}
	runKilled(t, leg, closed(found))
	res := runLeg(t, cfg)
	if !res.Interrupted || res.State.Runs != 4 || len(res.State.Violations) != 1 || res.State.Violations[0].Idx != 3 {
		t.Fatalf("resumed state: interrupted %v, %+v", res.Interrupted, res.State)
	}

	// At Parallel > 1 a kill can land after a violation is journaled
	// while runs below it are still in flight. The resume runs those
	// gaps and claims nothing past the violation; a gap that violates
	// becomes the campaign's first violation.
	for _, tc := range []struct {
		name     string
		journal  []int64 // runs journaled before the kill
		bound    int64   // the journaled violation
		wantViol []int64 // the resumed campaign's violations
	}{
		{"clean gap", []int64{0, 1, 3, 4}, 3, []int64{3}},
		{"violating gap", []int64{0, 1, 2, 8}, 8, []int64{3, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Runs: testRuns, Parallel: 2, Derive: testDerive, StateDir: t.TempDir(), StopOnViolation: true}
			if err := WriteCheckpoint(cfg.StateDir, &Checkpoint{Version: checkpointVersion, Identity: cfg.identity()}); err != nil {
				t.Fatal(err)
			}
			j, _, err := OpenJournal(JournalPath(cfg.StateDir), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range tc.journal {
				rec := Record{Type: recRun, Idx: idx}
				if idx%5 == 3 {
					rec.Err = "planted"
				}
				j.Append(rec)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			s := runLeg(t, cfg).State
			first := tc.wantViol[0]
			for idx := int64(0); idx < testRuns; idx++ {
				journaled := false
				for _, k := range tc.journal {
					journaled = journaled || k == idx
				}
				if idx <= first && !s.done(idx) || idx > tc.bound && s.done(idx) && !journaled {
					t.Fatalf("run %d done %v after the resume (journaled %v): %+v", idx, s.done(idx), tc.journal, s)
				}
			}
			var got []int64
			for _, v := range s.Violations {
				got = append(got, v.Idx)
			}
			if !reflect.DeepEqual(got, tc.wantViol) {
				t.Fatalf("violations %v, want %v", got, tc.wantViol)
			}
		})
	}
}

// TestCampaignWatchdogTimeout: under an immediately-expired RunTimeout
// every run times out twice, is recorded as an incident (with a bundle
// under incidents/), counted as done — and the campaign terminates
// instead of hanging. A resume then has nothing left to do.
func TestCampaignWatchdogTimeout(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Runs: 6, Parallel: 2, Derive: testDerive, StateDir: dir,
		RunTimeout: time.Nanosecond, StopCheckEvery: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.State
	if s.Runs != 6 || s.TimedOut != 6 || len(s.Violations) != 0 {
		t.Fatalf("state: %+v", s)
	}
	incidents := artifactFiles(t, filepath.Join(dir, "incidents"))
	if len(incidents) == 0 {
		t.Fatal("no incident bundles recorded")
	}
	for name, data := range incidents {
		if !strings.Contains(data, "watchdog") {
			t.Fatalf("incident %s lacks the watchdog marker", name)
		}
	}

	cfg.RunTimeout = 0
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.State.Runs != 6 || again.State.Resumed != 1 {
		t.Fatalf("resume after timeouts: %+v", again.State)
	}
}

// TestCampaignMemPressure: an unreachable soft limit steps the worker
// count down to one (journaled, in order) while the campaign still
// completes every run.
func TestCampaignMemPressure(t *testing.T) {
	res, err := Run(Config{
		Runs: 12, Parallel: 4, Derive: testDerive, MemSoftLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Runs != 12 || res.State.NextIdx != 12 {
		t.Fatalf("degraded campaign did not finish: %+v", res.State)
	}
	degr := res.State.Degradations
	if len(degr) != 2 ||
		!strings.Contains(degr[0], "stepped workers 4 -> 2") ||
		!strings.Contains(degr[1], "stepped workers 2 -> 1") {
		t.Fatalf("degradation ladder: %v", degr)
	}
}

// TestCampaignMemPressureJournalOrder: the ladder journals its steps in
// the order it takes them, the order a resume replays them in, and the
// journal agrees with the leg's state.
func TestCampaignMemPressureJournalOrder(t *testing.T) {
	for try := 0; try < 30; try++ {
		dir := t.TempDir()
		cfg := Config{Runs: 12, Parallel: 4, Derive: cleanDerive, StateDir: dir, MemSoftLimit: 1}
		killed := lastRun(&cfg)
		leg := runKilled(t, cfg, killed) // keep every record in the journal
		j, recs, err := OpenJournal(JournalPath(dir), nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		var journaled []string
		for _, rec := range recs {
			if rec.Type == recDegrade {
				journaled = append(journaled, rec.Event)
			}
		}
		if len(journaled) != 2 ||
			!strings.Contains(journaled[0], "stepped workers 4 -> 2") ||
			!strings.Contains(journaled[1], "stepped workers 2 -> 1") ||
			!reflect.DeepEqual(journaled, leg.State.Degradations) {
			t.Fatalf("try %d: journal %v, state %v", try, journaled, leg.State.Degradations)
		}
	}
}
