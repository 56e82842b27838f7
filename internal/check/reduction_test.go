package check

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
)

func TestReductionParseStringRoundTrip(t *testing.T) {
	for _, r := range []Reduction{ReductionNone, ReductionSleepSet, ReductionFingerprint, ReductionFull} {
		got, err := ParseReduction(r.String())
		if err != nil {
			t.Errorf("ParseReduction(%q): %v", r.String(), err)
		}
		if got != r {
			t.Errorf("round trip %v -> %q -> %v", r, r.String(), got)
		}
	}
	if _, err := ParseReduction("bogus"); err == nil {
		t.Error("ParseReduction accepted \"bogus\"")
	}
}

func TestReductionComponents(t *testing.T) {
	cases := []struct {
		r          Reduction
		sleep, fps bool
	}{
		{ReductionNone, false, false},
		{ReductionSleepSet, true, false},
		{ReductionFingerprint, false, true},
		{ReductionFull, true, true},
	}
	for _, tc := range cases {
		if got := tc.r.sleepSets(); got != tc.sleep {
			t.Errorf("%v.sleepSets() = %v, want %v", tc.r, got, tc.sleep)
		}
		if got := tc.r.fingerprints(); got != tc.fps {
			t.Errorf("%v.fingerprints() = %v, want %v", tc.r, got, tc.fps)
		}
	}
}

func TestCompareKeyOrder(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2}, []int{1, 2}, 0},
		{nil, []int{0}, -1},
		{[]int{1}, []int{1, 0}, -1}, // proper prefix precedes its extension
		{[]int{0, 5}, []int{1}, -1}, // lexicographic before length
		{[]int{2}, []int{1, 9, 9}, 1},
	}
	for _, tc := range cases {
		if got := compareKey(tc.a, tc.b); got != tc.want {
			t.Errorf("compareKey(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := compareKey(tc.b, tc.a); got != -tc.want {
			t.Errorf("compareKey(%v, %v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
	}
}

func TestIsPrefix(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, []int{0}, true},
		{[]int{1}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1, 2}, false}, // proper prefix only
		{[]int{2}, []int{1, 2}, false},
		{[]int{1, 2, 3}, []int{1, 2}, false},
	}
	for _, tc := range cases {
		if got := isPrefix(tc.a, tc.b); got != tc.want {
			t.Errorf("isPrefix(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSleepSubset(t *testing.T) {
	e1 := sched.SleepEntry{Proc: 1, Fp: mem.Footprint{Obj: 7, Kind: mem.AccessRead}}
	e2 := sched.SleepEntry{Proc: 2, Fp: mem.Footprint{Obj: 7, Kind: mem.AccessWrite}}
	if !sleepSubset(nil, []sched.SleepEntry{e1}) {
		t.Error("empty set not a subset")
	}
	if !sleepSubset([]sched.SleepEntry{e1}, []sched.SleepEntry{e2, e1}) {
		t.Error("contained entry not found")
	}
	if sleepSubset([]sched.SleepEntry{e1, e2}, []sched.SleepEntry{e1}) {
		t.Error("superset accepted as subset")
	}
}

// TestFPCacheVisitRules pins each branch of the pruning rule (see the
// visit doc comment). The single-worker rules run as worker 0, the
// cross-worker ones between workers 0 and 1.
func TestFPCacheVisitRules(t *testing.T) {
	e1 := sched.SleepEntry{Proc: 1}
	e2 := sched.SleepEntry{Proc: 2}

	c := newFPCache(16)
	// Miss: the visitor claims the state, never prunes.
	if c.visit(100, 0, []int{1, 0}, []sched.SleepEntry{e1}, 5) {
		t.Fatal("pruned on a cache miss")
	}
	// Same key: a run revisiting its own entry (self-replay) continues.
	if c.visit(100, 0, []int{1, 0}, nil, 5) {
		t.Fatal("pruned on an equal key")
	}
	// Cached key a proper prefix of ours: our own earlier pass through a
	// default-continuation cycle; pruning would lose deviations past it.
	if c.visit(100, 0, []int{1, 0, 0, 0}, []sched.SleepEntry{e1}, 5) {
		t.Fatal("pruned on a default-continuation cycle")
	}
	// Strictly smaller non-prefix key with >= budget and subset sleep:
	// the canonical visitor covers us — prune.
	if !c.visit(100, 0, []int{1, 1}, []sched.SleepEntry{e1, e2}, 5) {
		t.Fatal("did not prune a covered revisit")
	}
	// Same revisit but the cached visitor had a smaller budget: its
	// subtree explored fewer deviations than ours would — no prune.
	if c.visit(100, 0, []int{1, 1}, []sched.SleepEntry{e1, e2}, 6) {
		t.Fatal("pruned despite a larger remaining budget")
	}
	// Same revisit but our sleep set lacks the cached visitor's entry:
	// the visitor skipped branches we must still explore — no prune.
	if c.visit(100, 0, []int{1, 1}, []sched.SleepEntry{e2}, 5) {
		t.Fatal("pruned despite a non-superset sleep set")
	}

	// Larger cached key: the current run is the more canonical visitor;
	// it replaces the entry and continues, and the old key's runs now
	// defer to it.
	c2 := newFPCache(16)
	if c2.visit(200, 0, []int{3}, nil, 5) {
		t.Fatal("pruned on a miss")
	}
	if c2.visit(200, 0, []int{1, 1}, nil, 5) {
		t.Fatal("pruned the more-canonical replacement visitor")
	}
	if !c2.visit(200, 0, []int{3}, nil, 5) {
		t.Fatal("old visitor not pruned after replacement")
	}
	hits, evictions, entries := c2.stats()
	if hits != 2 || evictions != 0 || entries != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (2, 0, 1)", hits, evictions, entries)
	}

	// Another worker's entry prunes any visit it covers, whatever the
	// keys: its visitor ran on past the state, so the subtree is handed
	// to a run that is already deeper.
	c3 := newFPCache(16)
	if c3.visit(300, 0, []int{2, 1}, []sched.SleepEntry{e1}, 5) {
		t.Fatal("pruned on a miss")
	}
	if !c3.visit(300, 1, []int{1, 1}, []sched.SleepEntry{e1, e2}, 5) {
		t.Fatal("another worker's covering entry did not prune a smaller key")
	}
	if !c3.visit(300, 1, []int{3}, []sched.SleepEntry{e1}, 4) {
		t.Fatal("another worker's covering entry did not prune a larger key")
	}
	// Another worker's entry that does not cover us — by budget or by
	// sleep set — neither prunes nor is replaced, even by a smaller key.
	if c3.visit(300, 1, []int{1, 1}, []sched.SleepEntry{e1}, 6) {
		t.Fatal("pruned despite a larger remaining budget")
	}
	if c3.visit(300, 1, []int{1, 1}, []sched.SleepEntry{e2}, 5) {
		t.Fatal("pruned despite a non-superset sleep set")
	}
	if e := c3.entries[300]; e.worker != 0 || compareKey(e.key, []int{2, 1}) != 0 {
		t.Fatalf("another worker's smaller key replaced the entry: worker %d, key %v", e.worker, e.key)
	}
	if !c3.visit(300, 0, []int{3}, []sched.SleepEntry{e1}, 5) {
		t.Fatal("worker 0's entry no longer prunes its own larger keys")
	}
	hits, evictions, entries = c3.stats()
	if hits != 5 || evictions != 0 || entries != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (5, 0, 1)", hits, evictions, entries)
	}
}

// TestFPCacheFIFOEviction checks that overflow evicts the oldest entry
// and that an evicted fingerprint behaves as a fresh miss — forgoing
// pruning, never corrupting it.
func TestFPCacheFIFOEviction(t *testing.T) {
	c := newFPCache(2)
	for fp := uint64(1); fp <= 3; fp++ {
		if c.visit(fp, 0, []int{0}, nil, 1) {
			t.Fatalf("pruned on insert of %d", fp)
		}
	}
	hits, evictions, entries := c.stats()
	if hits != 0 || evictions != 1 || entries != 2 {
		t.Fatalf("stats = (%d, %d, %d), want (0, 1, 2)", hits, evictions, entries)
	}
	// Fingerprint 1 was evicted: revisiting it is a miss (reinsert, no
	// prune) even though a covering visitor once existed.
	if c.visit(1, 0, []int{5}, nil, 1) {
		t.Fatal("pruned on an evicted fingerprint")
	}
	// Fingerprint 3 is still cached; a later-key revisit prunes.
	if !c.visit(3, 0, []int{9}, nil, 1) {
		t.Fatal("retained entry did not prune")
	}
}
