package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRunUniConsensus(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  core.UniConsensusOpts
		trace string // the exact rendering and outcome; "" checks only for a process row
	}{
		{"uniform", core.UniConsensusOpts{N: 5, V: 2, Quantum: 8, Scheduler: "uniform:seed=3", Trace: true}, ""},
		// cmd/tracer's Fig. 1(a)/Fig. 2 and Fig. 1(b) interleavings.
		{"fig1a", core.UniConsensusOpts{N: 3, V: 1, Quantum: 8, Scheduler: "rotate", Trace: true},
			"    t=0..23\n" +
				"p0  [  !WRWRW]              \n" +
				"p1   [        !LRLRL]       \n" +
				"p2    [              !LRLRL]\n" +
				"decisions=[1 1 1] preemptions=3\n"},
		{"fig1b", core.UniConsensusOpts{N: 3, V: 3, Quantum: 8, Scheduler: "rotate", Trace: true},
			"    t=0..23\n" +
				"p0  [                RLRLRL]\n" +
				"p1   [        RLRLRL]       \n" +
				"p2    [RWRWRW]              \n" +
				"decisions=[3 3 3] preemptions=0\n"},
	} {
		res, err := core.RunUniConsensus(tc.opts)
		if err != nil {
			t.Fatalf("%s: RunUniConsensus: %v", tc.name, err)
		}
		if !res.Agreed {
			t.Fatalf("%s: disagreement: %v", tc.name, res.Decisions)
		}
		if res.WorstOpStmts != 8 {
			t.Fatalf("%s: worst op = %d statements, want 8", tc.name, res.WorstOpStmts)
		}
		if tc.trace == "" {
			if !strings.Contains(res.Trace, "p0") {
				t.Fatalf("%s: trace missing process row", tc.name)
			}
		} else if got := fmt.Sprintf("%sdecisions=%v preemptions=%d\n", res.Trace, res.Decisions, res.Preemptions); got != tc.trace {
			t.Errorf("%s: trace\n%s\nwant\n%s", tc.name, got, tc.trace)
		}
	}
}

// TestRunUniConsensusBadScheduler runs every scheduler spelling that
// cmd/hybridsim's usage documents and rejects malformed specs, among
// them the retired "<model>:<seed>" and "stagger:<period>:<phase>"
// forms and the deleted "random" model.
func TestRunUniConsensusBadScheduler(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"rtc", true},
		{"rotate", true},
		{"script", true},
		{"uniform:seed=7", true},
		{"stagger:period=8,phase=2", true},
		{"nope", false},
		{"", false},
		{"uniform:7", false},
		{"random", false},
		{"stagger:8:2", false},
		{"uniform:seed=x", false},
		{"rotate:period=8", false},
	} {
		_, err := core.RunUniConsensus(core.UniConsensusOpts{N: 2, Quantum: 8, Scheduler: tc.spec})
		if (err == nil) != tc.ok {
			t.Errorf("scheduler %q: err = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}

func TestRunMultiConsensusFig7(t *testing.T) {
	res, err := core.RunMultiConsensus(core.MultiConsensusOpts{
		P: 2, K: 1, M: 2, V: 2, Quantum: 2048, Scheduler: "uniform:seed=1",
	})
	if err != nil {
		t.Fatalf("RunMultiConsensus: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("disagreement: %v", res.Decisions)
	}
	if len(res.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(res.Decisions))
	}
}

func TestRunMultiConsensusFig9(t *testing.T) {
	res, err := core.RunMultiConsensus(core.MultiConsensusOpts{
		P: 2, K: 0, M: 3, V: 1, Quantum: 8, Scheduler: "rotate", Fair: true,
	})
	if err != nil {
		t.Fatalf("RunMultiConsensus fair: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("disagreement: %v", res.Decisions)
	}
}

func TestRunCASWorkload(t *testing.T) {
	res, err := core.RunCASWorkload(core.CASWorkloadOpts{
		N: 4, V: 2, OpsPer: 3, Quantum: 32, Scheduler: "uniform:seed=5",
	})
	if err != nil {
		t.Fatalf("RunCASWorkload: %v", err)
	}
	if res.Final != res.Want {
		t.Fatalf("final = %d, want %d", res.Final, res.Want)
	}
	if res.WorstOpStmts <= 0 || res.Steps <= 0 {
		t.Fatalf("bad stats: %+v", res)
	}
}
