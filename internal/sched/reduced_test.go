package sched_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// buildPair constructs the two-process local-statement workload used by
// the Reduced/Script equivalence tests.
func buildPair(ch sim.Chooser, order *[]int) *sim.System {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: ch})
	for i := 0; i < 2; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				for k := 0; k < 4; k++ {
					c.Local(1)
					*order = append(*order, i)
				}
			})
	}
	return sys
}

// TestReducedMatchesScriptWhenOff checks the compatibility contract:
// with sleep sets and pruning both off, Reduced replays a prefix and
// continues with default decisions exactly like Script — same execution
// order, same fanouts, and a Taken vector that extends the prefix with
// the default (first-candidate) picks.
func TestReducedMatchesScriptWhenOff(t *testing.T) {
	for _, prefix := range [][]int{nil, {0}, {1}, {1, 0, 1}, {0, 1, 1, 0}} {
		var scriptOrder []int
		script := &sched.Script{Decisions: prefix}
		if err := buildPair(script, &scriptOrder).Run(); err != nil {
			t.Fatalf("prefix %v: script run: %v", prefix, err)
		}
		var redOrder []int
		red := &sched.Reduced{Prefix: prefix}
		if err := buildPair(red, &redOrder).Run(); err != nil {
			t.Fatalf("prefix %v: reduced run: %v", prefix, err)
		}
		if len(scriptOrder) != len(redOrder) {
			t.Fatalf("prefix %v: order lengths differ: %d vs %d", prefix, len(scriptOrder), len(redOrder))
		}
		for i := range scriptOrder {
			if scriptOrder[i] != redOrder[i] {
				t.Fatalf("prefix %v: execution order diverges at %d: %v vs %v",
					prefix, i, scriptOrder, redOrder)
			}
		}
		if len(script.Fanouts) != len(red.Fanouts) {
			t.Fatalf("prefix %v: fanout counts differ: %v vs %v", prefix, script.Fanouts, red.Fanouts)
		}
		for i := range script.Fanouts {
			if script.Fanouts[i] != red.Fanouts[i] {
				t.Fatalf("prefix %v: fanouts diverge at %d: %v vs %v",
					prefix, i, script.Fanouts, red.Fanouts)
			}
		}
		if len(red.Taken) != len(red.Fanouts) {
			t.Fatalf("prefix %v: Taken covers %d of %d decisions", prefix, len(red.Taken), len(red.Fanouts))
		}
		if red.Clamped || red.Pruned || red.SleepDeadlock {
			t.Fatalf("prefix %v: spurious flags: clamped=%v pruned=%v deadlock=%v",
				prefix, red.Clamped, red.Pruned, red.SleepDeadlock)
		}
		if got, want := len(red.Snaps), len(red.Fanouts)-len(prefix); got != want {
			t.Fatalf("prefix %v: %d snaps for %d free decisions", prefix, got, want)
		}
	}
}

// TestReducedClampMatchesScript checks that an out-of-range prefix
// decision clamps and is flagged exactly like Script.
func TestReducedClampMatchesScript(t *testing.T) {
	var order []int
	red := &sched.Reduced{Prefix: []int{99}}
	if err := buildPair(red, &order).Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !red.Clamped {
		t.Fatal("clamped=false, want true")
	}
}

// TestSleepEntryWakes pins the wake rule — the exact complement of the
// independence relation the sleep-set reduction relies on.
func TestSleepEntryWakes(t *testing.T) {
	obj := mem.HashName("shared")
	other := mem.HashName("other")
	entry := sched.SleepEntry{
		Proc:      1,
		Processor: 0,
		Fp:        mem.Footprint{Obj: obj, Cell: -1, Kind: mem.AccessWrite},
	}
	acc := func(proc, processor int, fp mem.Footprint, global bool) sim.Access {
		return sim.Access{Proc: proc, Processor: processor, Fp: fp, Global: global}
	}
	read := func(o uint64) mem.Footprint { return mem.Footprint{Obj: o, Cell: -1, Kind: mem.AccessRead} }
	cases := []struct {
		name    string
		a       sim.Access
		quantum int
		want    bool
	}{
		{"global-access", acc(2, 1, mem.Footprint{}, true), 0, true},
		{"same-proc", acc(1, 1, read(other), false), 0, true},
		{"same-processor-quantum", acc(2, 0, read(other), false), 2, true},
		{"same-processor-no-quantum", acc(2, 0, read(other), false), 0, false},
		{"conflicting-footprint", acc(2, 1, read(obj), false), 0, true},
		{"commuting-footprint", acc(2, 1, read(other), false), 0, false},
		{"local-other-processor", acc(2, 1, mem.Footprint{}, false), 0, false},
	}
	for _, tc := range cases {
		if got := entry.Wakes(tc.a, tc.quantum); got != tc.want {
			t.Errorf("%s: wakes = %v, want %v", tc.name, got, tc.want)
		}
	}
}
