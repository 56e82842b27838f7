package check_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fpReads collects the fingerprints a verifier read, from any worker.
type fpReads struct {
	mu   sync.Mutex
	seen map[uint64]bool
}

func (r *fpReads) add(fp uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = map[uint64]bool{}
	}
	r.seen[fp] = true
}

// fingerprintVerifier wraps the unicons builder so that its verifier
// reads the system's fingerprint after every run.
func fingerprintVerifier(t *testing.T, reads *fpReads) check.Builder {
	t.Helper()
	build, err := check.BuilderFor(artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8})
	if err != nil {
		t.Fatal(err)
	}
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys, verify := build(ch)
		return sys, func(runErr error) error {
			reads.add(sys.Fingerprint())
			return verify(runErr)
		}
	}
}

// TestVerifierReadsFingerprintOnlyWhenPruning pins the fingerprint
// upkeep contract of check.Verify: an exploration that prunes by
// fingerprint keeps the upkeep, so a verifier reads real values; every
// other exploration declines it, so the read panics and each run is
// reported as a violation, never answered with a stale value.
func TestVerifierReadsFingerprintOnlyWhenPruning(t *testing.T) {
	const budget, seeds = 2, 40
	pruning := []struct {
		name    string
		explore func(check.Builder) *check.Result
	}{
		{"all/fingerprint", func(b check.Builder) *check.Result {
			return check.ExploreAll(b, check.Options{Reduction: check.ReductionFingerprint, Parallelism: 1})
		}},
		{"all/full", func(b check.Builder) *check.Result {
			return check.ExploreAll(b, check.Options{Reduction: check.ReductionFull, Parallelism: 2})
		}},
		{"budget/full", func(b check.Builder) *check.Result {
			return check.ExploreBudget(b, budget, check.Options{Reduction: check.ReductionFull, Parallelism: 1})
		}},
	}
	for _, tc := range pruning {
		t.Run(tc.name, func(t *testing.T) {
			reads := &fpReads{}
			res := tc.explore(fingerprintVerifier(t, reads))
			if res.Schedules == 0 || res.ViolationsTotal != 0 {
				t.Fatalf("%d schedules, %d violations, want some schedules and no violation: %v",
					res.Schedules, res.ViolationsTotal, res.First())
			}
			// Both proposals win on some schedule, so a verifier that reads
			// real values sees at least two final states.
			if len(reads.seen) < 2 {
				t.Fatalf("verifier read %d distinct fingerprints over %d schedules, want at least 2",
					len(reads.seen), res.Schedules)
			}
		})
	}
	uniform := &sched.ModelSpec{Name: "uniform", Seed: 3}
	declined := []struct {
		name    string
		explore func(check.Builder) *check.Result
	}{
		{"budget", func(b check.Builder) *check.Result {
			return check.ExploreBudget(b, budget, check.Options{Parallelism: 1})
		}},
		{"all/sleepset", func(b check.Builder) *check.Result {
			return check.ExploreAll(b, check.Options{Reduction: check.ReductionSleepSet, Parallelism: 1})
		}},
		{"fuzz", func(b check.Builder) *check.Result {
			return check.Fuzz(b, seeds, check.Options{Parallelism: 2})
		}},
		{"measure", func(b check.Builder) *check.Result {
			return check.Fuzz(b, seeds, check.Options{Parallelism: 1, SchedModel: uniform, Measure: true})
		}},
	}
	for _, tc := range declined {
		t.Run(tc.name, func(t *testing.T) {
			reads := &fpReads{}
			res := tc.explore(fingerprintVerifier(t, reads))
			if res.Schedules == 0 || res.ViolationsTotal != res.Schedules {
				t.Fatalf("%d violations over %d schedules, want every schedule reported", res.ViolationsTotal, res.Schedules)
			}
			if len(reads.seen) != 0 {
				t.Fatalf("verifier read %d fingerprints on systems that declined the upkeep", len(reads.seen))
			}
			for _, v := range res.Violations {
				if !strings.Contains(v.Err.Error(), "SkipFingerprint") {
					t.Fatalf("violation %s: %v, want the declined-upkeep panic", v.Schedule, v.Err)
				}
			}
		})
	}
}
