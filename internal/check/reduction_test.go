package check

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
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
		// Decisions from 0xFF up take five bytes in the encoded key.
		{[]int{254}, []int{255}, -1},
		{[]int{255}, []int{256}, -1},
		{[]int{255}, []int{255, 0}, -1},
		{[]int{1 << 20}, []int{255, 1 << 20}, 1},
		{[]int{7, 70000, 3}, []int{7, 70000, 3}, 0},
	}
	for _, tc := range cases {
		if got := compareKey(tc.a, tc.b); got != tc.want {
			t.Errorf("compareKey(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := compareKey(tc.b, tc.a); got != -tc.want {
			t.Errorf("compareKey(%v, %v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
		// The cache compares encoded keys; they must order alike.
		if got := bytes.Compare(appendKey(nil, tc.a), appendKey(nil, tc.b)); got != tc.want {
			t.Errorf("encoded %v vs %v: bytes.Compare = %d, want %d", tc.a, tc.b, got, tc.want)
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
		{[]int{255}, []int{255, 0}, true},
		{[]int{255}, []int{256}, false}, // shares the encoded 0xFF byte
		{[]int{0, 0, 1}, []int{0, 0, 1 << 8}, false},
	}
	for _, tc := range cases {
		if got := isPrefix(tc.a, tc.b); got != tc.want {
			t.Errorf("isPrefix(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		// The cache tests encoded keys; a proper prefix must encode as one.
		ea, eb := appendKey(nil, tc.a), appendKey(nil, tc.b)
		if got := len(ea) < len(eb) && bytes.HasPrefix(eb, ea); got != tc.want {
			t.Errorf("encoded %v prefix of %v = %v, want %v", tc.a, tc.b, got, tc.want)
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

	c := newFPCache(16, 1)
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
	c2 := newFPCache(16, 1)
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
	c3 := newFPCache(16, 1)
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
	if _, e := c3.shards[0].find(300); e.worker != 0 || !bytes.Equal(c3.shards[0].keys.get(e.key), appendKey(nil, []int{2, 1})) {
		t.Fatalf("another worker's smaller key replaced the entry: worker %d, key %v", e.worker, c3.shards[0].keys.get(e.key))
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
	c := newFPCache(2, 1)
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

// TestFPCacheConcurrentVisits has workers visit overlapping fingerprints
// of a sharded cache at once, each under its own worker id. Every visit
// is a hit or a miss, and every miss leaves an entry or evicts one, so
// the shards' sums must account for each visit exactly. A second round
// sheds the cache while visits are in flight.
func TestFPCacheConcurrentVisits(t *testing.T) {
	const workers, perWorker = 4, 2000
	for _, capacity := range []int{1 << 20, 64} {
		c := newFPCache(capacity, workers)
		if len(c.shards) < 2 {
			t.Fatalf("capacity %d: %d shards, want several", capacity, len(c.shards))
		}
		visitAll := func() {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sleep := []sched.SleepEntry{{Proc: w}}
					for i := 0; i < perWorker; i++ {
						// Neighbouring workers share half their fingerprints.
						fp := mem.Mix(uint64(w*perWorker/2+i), 0)
						c.visit(fp, w, []int{w, i % 7, i}, sleep[:i%2], i%5)
					}
				}()
			}
			wg.Wait()
		}
		visitAll()
		hits, evictions, entries := c.stats()
		if entries > capacity {
			t.Errorf("capacity %d: %d entries", capacity, entries)
		}
		if got := hits + evictions + int64(entries); got != workers*perWorker {
			t.Errorf("capacity %d: hits %d + evictions %d + entries %d = %d, want %d visits",
				capacity, hits, evictions, entries, got, workers*perWorker)
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 20; i++ {
				c.shed()
				runtime.Gosched()
			}
		}()
		visitAll()
		<-done
		if _, _, entries := c.stats(); entries > capacity {
			t.Errorf("capacity %d: %d entries after shedding", capacity, entries)
		}
	}
}

// TestFPCacheCapacity checks that the shards together never hold more
// than their capacity in entries, whatever the worker count, including
// capacities below the shard count a worker count asks for, and that
// every insert past a full shard evicts exactly one entry.
func TestFPCacheCapacity(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 17, 1000} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("cap%d/w%d", capacity, workers), func(t *testing.T) {
				c := newFPCache(capacity, workers)
				n := len(c.shards)
				if bits.OnesCount(uint(n)) != 1 || n > capacity || (workers == 1 && n != 1) {
					t.Fatalf("%d shards", n)
				}
				inserts := 4 * capacity
				for i := 0; i < inserts; i++ {
					if c.visit(mem.Mix(uint64(i), 0), i%workers, []int{i}, nil, 1) {
						t.Fatalf("insert %d pruned", i)
					}
				}
				hits, evictions, entries := c.stats()
				if hits != 0 || entries > capacity || int64(entries)+evictions != int64(inserts) {
					t.Fatalf("hits %d, entries %d, evictions %d after %d distinct inserts into capacity %d",
						hits, entries, evictions, inserts, capacity)
				}
			})
		}
	}
}

// TestFPCacheUpFrontBytes checks that sharding does not raise what a
// small exploration pays before its cache is warm: a two-worker cache
// that has taken one insert per shard has allocated no more than a
// one-worker cache after the same inserts.
func TestFPCacheUpFrontBytes(t *testing.T) {
	capacity := fpCacheEntries
	two := newFPCache(capacity, 2)
	fps := make([]uint64, len(two.shards))
	for i := range fps {
		fps[i] = uint64(i) << two.shift
	}
	key := make([]int, 20)
	alloc := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := newFPCache(capacity, workers)
		for _, fp := range fps {
			c.visit(fp, 0, key, nil, 1)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, sharded := alloc(1), alloc(2)
	if sharded > one {
		t.Fatalf("two-worker cache (%d shards) allocated %d bytes for %d inserts, one-worker cache %d",
			len(fps), sharded, len(fps), one)
	}
}
