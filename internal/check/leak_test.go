package check_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sched"
)

// goroutinesAfter gives exiting goroutines a moment to finish and
// returns how many remain once the count is back to want, or after two
// seconds.
func goroutinesAfter(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestExplorersLeaveNoGoroutines checks that every explorer closes the
// systems its workers built before it returns, both the pooled system of
// a builder with reset hooks and the build-per-run systems of one
// without: no process coroutine outlives the call.
func TestExplorersLeaveNoGoroutines(t *testing.T) {
	pooled, err := check.BuilderFor(artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2})
	if err != nil {
		t.Fatal(err)
	}
	builders := []struct {
		name  string
		build check.Builder
	}{
		{"reset hooks", pooled},
		{"no reset hooks", fig3Builder(3, 2)},
	}
	explorers := []struct {
		name string
		run  func(check.Builder, check.Options) *check.Result
	}{
		{"ExploreAll", func(b check.Builder, o check.Options) *check.Result { return check.ExploreAll(b, o) }},
		{"ExploreAll reduced", func(b check.Builder, o check.Options) *check.Result {
			o.Reduction = check.ReductionFull
			return check.ExploreAll(b, o)
		}},
		{"ExploreBudget", func(b check.Builder, o check.Options) *check.Result { return check.ExploreBudget(b, 2, o) }},
		{"Fuzz Measure", func(b check.Builder, o check.Options) *check.Result {
			o.Measure = true
			o.SchedModel = &sched.ModelSpec{Name: "uniform", Seed: 3}
			return check.Fuzz(b, 200, o)
		}},
	}
	for _, b := range builders {
		for _, e := range explorers {
			for _, par := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/P%d", e.name, b.name, par), func(t *testing.T) {
					start := runtime.NumGoroutine()
					res := e.run(b.build, check.Options{MaxSchedules: 200, Parallelism: par})
					if res.Schedules == 0 {
						t.Fatal("explored no schedules")
					}
					if n := goroutinesAfter(start); n > start {
						t.Fatalf("%d goroutines after %d schedules, %d before", n, res.Schedules, start)
					}
				})
			}
		}
	}
}
