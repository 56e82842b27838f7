package check

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
)

// TestPooledReplayAllocFree pins the tentpole allocation guarantee: the
// steady-state replay loop — Script reset, pooled System reset, run,
// verify — performs zero heap allocations per schedule for the pinned
// workloads: unicons, and lockcounter on a schedule that completes,
// whose OnReset hook resets its counter in place. A regression here (a
// forgotten buffer reset, a fresh slice or map per run, a new closure
// on the hot path) is the kind of cost that silently erodes explorer
// throughput.
func TestPooledReplayAllocFree(t *testing.T) {
	rows := []struct {
		name      string
		meta      artifact.Meta
		warmup    [][]int
		decisions []int
	}{
		{"unicons", artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 8, MaxSteps: 1 << 16},
			[][]int{nil, {1}, {2}, {0, 1}, {1, 2, 1}}, []int{1, 2, 1}},
		{"lockcounter", artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000},
			[][]int{nil, {1}, {0, 0, 0, 0, 1}}, []int{1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			build, err := BuilderFor(row.meta)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(build)
			defer r.close()
			script := &sched.Script{}
			replay := func(decisions []int) error {
				script.Reset(decisions)
				_, verify, runErr := r.run(script)
				return verify(runErr)
			}
			// Warm up: probe-build the pooled system and grow every reusable
			// buffer (fan-out records, kernel access logs, candidate scratch)
			// to its steady-state capacity.
			for _, dec := range row.warmup {
				if verr := replay(dec); verr != nil {
					t.Fatalf("warmup replay %v: unexpected violation: %v", dec, verr)
				}
			}
			if !r.pooled {
				t.Fatalf("%s workload did not produce a reusable system; pooling is off", row.name)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if verr := replay(row.decisions); verr != nil {
					t.Fatalf("replay %v: unexpected violation: %v", row.decisions, verr)
				}
			})
			if allocs != 0 {
				t.Fatalf("pooled replay loop allocates %v objects per schedule; want 0", allocs)
			}
		})
	}
}

// TestWSDequeStress hammers one wsDeque with its owner and several
// thieves and checks every pushed item is consumed exactly once —
// nothing lost, nothing double-taken. Run under `go test -race` (the
// CI race job) this doubles as the memory-safety smoke test for the
// steal path, including ring growth while thieves hold the retired
// ring.
func TestWSDequeStress(t *testing.T) {
	const (
		items   = 50000
		thieves = 4
	)
	d := newWSDeque[int]()
	taken := make([]atomic.Int32, items)
	var consumed atomic.Int64
	consume := func(v *int) {
		if n := taken[*v].Add(1); n != 1 {
			t.Errorf("item %d consumed %d times", *v, n)
		}
		consumed.Add(1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, retry := d.steal()
				if v != nil {
					consume(v)
					continue
				}
				if !retry {
					select {
					case <-stop:
						// Drain once more after the owner is done so no
						// item is stranded between the emptiness check
						// and the close.
						for {
							v, retry := d.steal()
							if v != nil {
								consume(v)
							} else if !retry {
								return
							}
						}
					default:
					}
				}
			}
		}()
	}
	vals := make([]int, items)
	for i := 0; i < items; i++ {
		vals[i] = i
		d.push(&vals[i])
		// Interleave owner pops so the bottom races the thieves' top.
		if i%3 == 0 {
			if v := d.pop(); v != nil {
				consume(v)
			}
		}
	}
	for {
		v := d.pop()
		if v == nil {
			break
		}
		consume(v)
	}
	close(stop)
	wg.Wait()
	// The owner's final pop loop can observe nil on a lost race while a
	// thief still holds the last item, so only after all goroutines
	// join is the total meaningful.
	if n := consumed.Load(); n != items {
		t.Fatalf("consumed %d of %d items", n, items)
	}
	for i := range taken {
		if taken[i].Load() != 1 {
			t.Fatalf("item %d consumed %d times; want exactly 1", i, taken[i].Load())
		}
	}
}

// TestSleepDeadlockAccounting pins the audited semantics of the
// ReductionStats sleep counters (renamed from the misleading
// sleep_pruned_runs in bench schema v3): on a sleep-set exploration
// that exercises the reduction heavily, all savings are skipped
// branches and no run aborts in sleep deadlock — the granted process
// is never asleep while enabled, and its departure wakes everyone (see
// the SleepDeadlockRuns doc). If a workload change ever makes deadlock
// reachable here, this test fails and the stat's documentation must be
// revisited rather than silently drifting.
func TestSleepDeadlockAccounting(t *testing.T) {
	build, err := BuilderFor(artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 0, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	res := ExploreAll(build, Options{Parallelism: 1, MaxSchedules: 1 << 22, Reduction: ReductionSleepSet})
	if res.Truncated || res.Interrupted {
		t.Fatalf("exploration did not complete: %+v", res)
	}
	rs := res.Reduction
	if rs == nil {
		t.Fatal("no ReductionStats on a reduced exploration")
	}
	if rs.SleepSkippedBranches == 0 {
		t.Error("sleep-set reduction skipped no branches; the config no longer exercises the reduction")
	}
	if rs.SleepDeadlockRuns != 0 {
		t.Errorf("SleepDeadlockRuns = %d; the documented unreachability argument no longer holds — update the stat docs",
			rs.SleepDeadlockRuns)
	}
}
