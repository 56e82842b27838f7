package service_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/service"
	"repro/internal/service/jobspec"
	"repro/internal/store"
)

var errKilled = errors.New("simulated kill")

// killPoint is a durable fault hook that simulates a SIGKILL at one
// write. Writes before the at-th pass; the at-th fails at its rename
// (before it lands) or, with after set, at its directory sync (after
// it lands); every later write fails before it touches the disk. With
// at = 0 nothing fails, and the hook only counts the writes.
type killPoint struct {
	at    int
	after bool
	hit   chan struct{} // closed when the at-th write begins

	mu       sync.Mutex
	n        int
	inflight map[string]int // target path -> its write's number
}

func newKillPoint(at int, after bool) *killPoint {
	return &killPoint{at: at, after: after, hit: make(chan struct{}), inflight: map[string]int{}}
}

func (k *killPoint) fault(path string, step durable.Step) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if step == durable.Write {
		k.n++
		k.inflight[path] = k.n
		if k.n == k.at {
			close(k.hit)
		}
	}
	switch i := k.inflight[path]; {
	case k.at == 0 || i < k.at:
		return nil
	case i > k.at, k.after && step == durable.SyncDir, !k.after && step == durable.Rename:
		return errKilled
	}
	return nil
}

func (k *killPoint) writes() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.n
}

// killRow is one job kind of the kill suite.
type killRow struct {
	name string
	spec *jobspec.Spec
	// verdict renders what a killed and resumed job must share with the
	// uninterrupted one.
	verdict func(t *testing.T, st *store.Store, s service.Status) string
}

// suiteMeta makes every schedule violate: unicons at N=3, Q=2 under a
// wait-free bound of 6.
var suiteMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 18, WaitFreeBound: 6}

// suiteLegs is the check rows' leg size: each row's allowance is two
// legs, so the suite kills every write of the first two legs.
const suiteLegs = 250

// exactCheck is the verdict of a plain or fuzz job: totals, and the
// recorded violations with their stored bundles.
func exactCheck(t *testing.T, st *store.Store, s service.Status) string {
	var prog struct {
		Violations []service.ViolationRecord `json:"violations"`
	}
	data, err := st.ReadJobFile(s.ID, "progress.json")
	if err != nil || json.Unmarshal(data, &prog) != nil {
		t.Fatalf("%s: progress.json unreadable: %v", s.ID, err)
	}
	var recorded []string
	for _, v := range prog.Violations {
		recorded = append(recorded, v.Schedule+"@"+v.Artifact)
	}
	return fmt.Sprintf("%s schedules=%d violations=%d recorded=%v", s.State, s.Schedules, s.Violations, recorded)
}

// soakVerdict is a soak job's runs, crashes and violations by index.
func soakVerdict(t *testing.T, st *store.Store, s service.Status) string {
	dir, err := st.StateDir(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := campaign.LoadCheckpoint(dir)
	if err != nil || cp == nil {
		t.Fatalf("%s: checkpoint unreadable: %v", s.ID, err)
	}
	var viols []string
	for _, v := range cp.State.Violations {
		viols = append(viols, fmt.Sprintf("%d:%s", v.Idx, v.Err))
	}
	return fmt.Sprintf("%s runs=%d/%d crashes=%d/%d violations=%d %v",
		s.State, s.Runs, cp.State.Runs, s.Crashes, cp.State.Crashes, s.Violations, viols)
}

// restartVerdict is all a job that restarts by design must keep: its
// outcome and how many results it stored.
func restartVerdict(_ *testing.T, _ *store.Store, s service.Status) string {
	return fmt.Sprintf("%s artifacts=%d", s.State, len(s.Artifacts))
}

func killRows(t *testing.T) []killRow {
	check := func(c jobspec.Check) *jobspec.Spec {
		c.Meta = suiteMeta
		return &jobspec.Spec{Kind: jobspec.KindCheck, Check: &c}
	}
	// The soak rows find six violations in 24 lockcounter runs, the
	// first at run 8, and inject 13 crashes.
	soak := func(keepGoing bool) *jobspec.Spec {
		return &jobspec.Spec{Kind: jobspec.KindSoak, Soak: &jobspec.Soak{Workload: "lockcounter", N: 2, V: 2, Quantum: 1,
			WaitFreeBound: 50, Runs: 24, Seed: 1, CrashSeed: 2, MaxCrashes: 1, CheckpointEvery: 8, KeepGoing: keepGoing}}
	}
	rows := []killRow{
		{"plain", check(jobspec.Check{Mode: jobspec.ModeAll, MaxSchedules: 2 * suiteLegs, Artifacts: true}), exactCheck},
		{"fuzz", check(jobspec.Check{Mode: jobspec.ModeFuzz, Seeds: 2 * suiteLegs}), exactCheck},
		{"reduced", check(jobspec.Check{Mode: jobspec.ModeAll, Reduction: "full", MaxSchedules: 2 * suiteLegs}),
			func(_ *testing.T, _ *store.Store, s service.Status) string { return s.State }},
		{"soak", soak(true), soakVerdict},
		{"soak-stop-at-first", soak(false), soakVerdict},
		{"measure", &jobspec.Spec{Kind: jobspec.KindMeasure, Measure: &jobspec.Measure{Meta: artifact.Meta{Workload: "lockcounter",
			N: 2, V: 2, Quantum: 2, MaxSteps: 2000, WaitFreeBound: 200}, Model: "uniform:seed=1", Replays: 50}}, restartVerdict},
		{"lint", &jobspec.Spec{Kind: jobspec.KindLint, Lint: &jobspec.Lint{Patterns: []string{"./internal/durable"}}}, restartVerdict},
	}
	for _, row := range rows {
		if err := row.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
	}
	return rows
}

// TestKillAtEveryWrite is the service's kill-at-any-write suite. For
// each job kind it takes every durable write of an uninterrupted run in
// turn (the check rows run two legs) and kills the service there,
// once before that write's rename and once after it: the write and
// every later one fail, then Kill stops the service, a fresh service
// boots over the same store and runs the job to the end. Plain, fuzz
// and soak jobs must reach the uninterrupted run's exact totals, a
// fully reduced job its verdict; measure and lint jobs restart by
// design and must only never leave a torn result. Every boot must
// succeed, and every JSON file in the store must decode.
func TestKillAtEveryWrite(t *testing.T) {
	for _, row := range killRows(t) {
		t.Run(row.name, func(t *testing.T) {
			ref := newKillPoint(0, false)
			refRoot := t.TempDir()
			want := runKillPoint(t, row, ref, refRoot, "")
			total := ref.writes()
			if total < 4 {
				t.Fatalf("uninterrupted run made %d durable writes", total)
			}
			for at := 1; at <= total; at++ {
				for _, after := range []bool{false, true} {
					got := runKillPoint(t, row, newKillPoint(at, after), t.TempDir(), refRoot)
					if got != want && got != unsubmitted {
						t.Fatalf("killed %s write %d of %d: resumed job reports\n  %s\nuninterrupted job reported\n  %s",
							map[bool]string{false: "before", true: "after"}[after], at, total, got, want)
					}
				}
			}
		})
	}
}

// unsubmitted is the verdict of a job whose submission failed: the
// client got an error and no ID, and no boot knows the job.
const unsubmitted = "never submitted"

// TestBootSkipsJobWithoutSpec: a submission killed before its spec
// landed leaves a job directory without spec.json, which boot skips.
func TestBootSkipsJobWithoutSpec(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.CreateJob()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st, GlobalWorkers: 1})
	if err != nil {
		t.Fatalf("boot over a job without spec.json: %v", err)
	}
	defer svc.Stop()
	if _, err := svc.Job(id); !errors.Is(err, service.ErrUnknownJob) {
		t.Fatalf("Job(%s) = %v, want ErrUnknownJob", id, err)
	}
}

// runKillPoint runs row's job over a fresh store at root with kp armed
// and returns its verdict. Unless kp is the uninterrupted reference, it
// kills the service once kp's write begins and finishes the job on a
// second service booted over the same store. A non-empty cacheFrom
// lends root that store's reprolint cache, so lint rows re-run warm.
func runKillPoint(t *testing.T, row killRow, kp *killPoint, root, cacheFrom string) string {
	t.Helper()
	if cacheFrom != "" {
		if err := os.Symlink(filepath.Join(cacheFrom, "reprolint-cache"), filepath.Join(root, "reprolint-cache")); err != nil {
			t.Fatal(err)
		}
	}
	boot := func() *service.Service {
		st, err := store.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(service.Config{Store: st, GlobalWorkers: 1, MaxActiveJobs: 1, LegSchedules: suiteLegs})
		if err != nil {
			t.Fatalf("write %d (after rename: %v): boot failed: %v", kp.at, kp.after, err)
		}
		return svc
	}
	restore := durable.SetFault(kp.fault)
	defer restore() // also on a failed test: a hook left armed fails every later write
	svc := boot()
	id, err := svc.Submit(row.spec)
	if kp.at == 0 {
		if err != nil {
			t.Fatal(err)
		}
		s := waitJob(t, svc, id, "terminal", isTerminal)
		svc.Stop()
		restore()
		return verdictOf(t, root, row, s)
	}
	if err != nil {
		id = "job-000001" // the ID the failed submission drew
	}
	select {
	case <-kp.hit:
	case <-time.After(60 * time.Second):
		t.Fatalf("write %d never began", kp.at)
	}
	svc.Kill()
	restore()

	svc = boot()
	defer svc.Stop()
	if err != nil {
		// The client got an error, not an ID: no boot may run the job.
		if _, jerr := svc.Job(id); !errors.Is(jerr, service.ErrUnknownJob) {
			t.Fatalf("write %d (after rename: %v): submission failed (%v), yet the resumed service knows %s",
				kp.at, kp.after, err, id)
		}
		verdictOf(t, root, row, service.Status{})
		return unsubmitted
	}
	s := waitJob(t, svc, id, "terminal", isTerminal)
	svc.Stop()
	return verdictOf(t, root, row, s)
}

// verdictOf checks that nothing in the store at root is torn and
// renders the row's verdict for s; a zero s is a job whose submission
// never landed, which has no verdict but must not leave a torn store.
func verdictOf(t *testing.T, root string, row killRow, s service.Status) string {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" || strings.Contains(path, "reprolint-cache") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !json.Valid(data) {
			return fmt.Errorf("torn file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID == "" {
		return ""
	}
	st, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range s.Artifacts {
		if data, err := st.Artifact(key); err != nil || data == nil {
			t.Fatalf("%s lists artifact %s, which the store lacks (%v)", s.ID, key, err)
		}
	}
	return row.verdict(t, st, s)
}
