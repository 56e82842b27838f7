package service_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/durable"
	"repro/internal/service"
	"repro/internal/service/jobspec"
	"repro/internal/store"
)

// TestKillRestartEquivalence is the durability contract: a job hard-killed
// mid-exploration and resumed on the next boot must report the totals of
// an uninterrupted run. unicons at N=3, Q=2 under a wait-free bound of 6
// makes every schedule a violation, so both the schedule count and the
// violation count are sensitive to lost or replayed legs. Plain and fuzz
// jobs resume exactly; a fully reduced job starts each leg with an empty
// fingerprint cache, so it keeps the verdict. However many legs a job
// runs, its progress.json records at most check's default 16
// violations, and for the exact rows they are the uninterrupted run's.
func TestKillRestartEquivalence(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 18, WaitFreeBound: 6}
	for _, row := range []struct {
		name  string
		check *jobspec.Check
		exact bool
	}{
		{"plain", &jobspec.Check{Meta: meta, Mode: jobspec.ModeAll, MaxSchedules: 30000}, true},
		{"fuzz", &jobspec.Check{Meta: meta, Mode: jobspec.ModeFuzz, Seeds: 3000}, true},
		{"reduced", &jobspec.Check{Meta: meta, Mode: jobspec.ModeAll, Reduction: "full", MaxSchedules: 30000}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := &jobspec.Spec{Kind: jobspec.KindCheck, Check: row.check}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}

			// Uninterrupted reference, straight through the engine.
			build, err := spec.Check.Builder()
			if err != nil {
				t.Fatal(err)
			}
			opts, err := spec.Check.Options()
			if err != nil {
				t.Fatal(err)
			}
			opts.Parallelism = 1
			ref := spec.Check.Run(build, opts)
			// The reference uses the job's whole allowance: the tree rows
			// reach their MaxSchedules cap, the fuzz row runs every seed.
			allowance := row.check.MaxSchedules
			if row.check.Mode == jobspec.ModeFuzz {
				allowance = row.check.Seeds
			}
			if ref.Schedules != allowance || ref.ViolationsTotal == 0 {
				t.Fatalf("reference run: %d schedules, %d violations — config no longer stresses the bound",
					ref.Schedules, ref.ViolationsTotal)
			}

			root := t.TempDir()
			st, err := store.Open(root)
			if err != nil {
				t.Fatal(err)
			}
			cfg := service.Config{Store: st, GlobalWorkers: 1, MaxActiveJobs: 1, LegSchedules: 250}
			svc, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}

			// Let a few legs checkpoint, then pull the plug: fail every
			// durable write, stop the service, and disarm the hook only once
			// Stop has returned, so the leg in flight and the graceful
			// checkpoint are both lost — the same observable state as a
			// SIGKILL.
			waitJob(t, svc, id, "a few legs", func(s service.Status) bool { return s.Legs >= 3 })
			restore := durable.SetFault(func(string, durable.Step) error { return errKilled })
			svc.Stop()
			restore()

			// Boot a fresh service over the same store; the interrupted job
			// must be requeued and run to completion.
			st2, err := store.Open(root)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = st2
			svc2, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Stop()
			final := waitJob(t, svc2, id, "terminal", isTerminal)

			if final.State != service.StateFailed {
				t.Fatalf("resumed job ended %s (%s), want failed", final.State, final.Error)
			}
			if final.Resumes != 1 {
				t.Fatalf("resumes = %d, want 1", final.Resumes)
			}
			if row.exact && final.Schedules != ref.Schedules {
				t.Fatalf("resumed run explored %d schedules, uninterrupted run %d", final.Schedules, ref.Schedules)
			}
			if row.exact && final.Violations != ref.ViolationsTotal {
				t.Fatalf("resumed run found %d violations, uninterrupted run %d", final.Violations, ref.ViolationsTotal)
			}

			data, err := st2.ReadJobFile(id, "progress.json")
			if err != nil {
				t.Fatal(err)
			}
			var prog struct {
				Violations []service.ViolationRecord `json:"violations"`
			}
			if err := json.Unmarshal(data, &prog); err != nil {
				t.Fatal(err)
			}
			if len(prog.Violations) == 0 || len(prog.Violations) > 16 {
				t.Fatalf("progress.json records %d violations, want 1 to 16", len(prog.Violations))
			}
			// At one worker the legs run in canonical order, so the record
			// is the uninterrupted run's first violations.
			for i := 0; row.exact && i < len(ref.Violations); i++ {
				if i >= len(prog.Violations) || prog.Violations[i].Schedule != ref.Violations[i].Schedule {
					t.Fatalf("recorded violation %d differs from the uninterrupted run's %q", i, ref.Violations[i].Schedule)
				}
			}
		})
	}
}

// TestConcurrentJobsShareWorkers verifies multi-tenancy: with two worker
// slots and two active-job slots, two submitted soaks must both be in
// StateRunning making forward progress at the same time, each holding its
// fair share (one worker) of the global pool.
func TestConcurrentJobsShareWorkers(t *testing.T) {
	svc, err := service.New(service.Config{GlobalWorkers: 2, MaxActiveJobs: 2, Store: openStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		spec := &jobspec.Spec{Kind: jobspec.KindSoak, Soak: &jobspec.Soak{Runs: 0, Seed: seed}}
		id, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		bothRunning := true
		for _, id := range ids {
			s, err := svc.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if s.State != service.StateRunning || s.Runs == 0 {
				bothRunning = false
			} else if s.Workers != 1 {
				t.Fatalf("job %s holds %d workers, fair share of 2/2 is 1", id, s.Workers)
			}
		}
		if bothRunning {
			break
		}
		if time.Now().After(deadline) {
			for _, id := range ids {
				s, _ := svc.Job(id)
				t.Logf("job %s: %+v", id, s)
			}
			t.Fatal("jobs never progressed concurrently")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, id := range ids {
		if err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		s := waitJob(t, svc, id, "cancelled", isTerminal)
		if s.State != service.StateCancelled {
			t.Fatalf("job %s ended %s, want cancelled", id, s.State)
		}
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}
