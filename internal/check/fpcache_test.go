package check

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
)

// mapCache is the fingerprint cache as it was before its flat tables,
// kept as the reference TestFPCacheMatchesMapReference holds fpCache
// to: the same shards and visit rules, but each shard a Go map of
// entries with []int keys and a FIFO ring of fingerprints.
type mapCache struct {
	shift  uint
	shards []mapShard
}

type mapShard struct {
	capacity  int
	entries   map[uint64]mapEntry
	order     []uint64 // FIFO insertion ring
	head      int
	hits      int64
	evictions int64
}

type mapEntry struct {
	key    []int
	sleep  []sched.SleepEntry
	budget int
	worker int
}

func newMapCache(capacity, workers int) *mapCache {
	n := fpShards(workers, capacity)
	c := &mapCache{shift: uint(64 - bits.TrailingZeros(uint(n))), shards: make([]mapShard, n)}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = capacity / n
		if i < capacity%n {
			s.capacity++
		}
		s.entries = map[uint64]mapEntry{}
	}
	return c
}

// compareKey orders taken-decision vectors lexicographically with a
// proper prefix before its extensions.
func compareKey(a, b []int) int { return slices.Compare(a, b) }

// isPrefix reports whether a is a proper prefix of b.
func isPrefix(a, b []int) bool {
	return len(a) < len(b) && slices.Equal(a, b[:len(a)])
}

func (c *mapCache) visit(fp uint64, w int, taken []int, sleep []sched.SleepEntry, budget int) bool {
	s := &c.shards[fp>>c.shift]
	e, ok := s.entries[fp]
	if !ok {
		if len(s.entries) >= s.capacity {
			delete(s.entries, s.order[s.head])
			s.order[s.head] = fp
			s.head = (s.head + 1) % len(s.order)
			s.evictions++
		} else {
			s.order = append(s.order, fp)
		}
		s.entries[fp] = mapEntry{key: slices.Clone(taken), sleep: slices.Clone(sleep), budget: budget, worker: w}
		return false
	}
	s.hits++
	if e.worker != w {
		return e.covers(budget, sleep)
	}
	switch cmp := compareKey(e.key, taken); {
	case cmp == 0:
		return false
	case cmp < 0:
		return !isPrefix(e.key, taken) && e.covers(budget, sleep)
	default:
		e.key, e.sleep, e.budget = slices.Clone(taken), slices.Clone(sleep), budget
		s.entries[fp] = e
		return false
	}
}

func (e mapEntry) covers(budget int, sleep []sched.SleepEntry) bool {
	return e.budget >= budget && sleepSubset(e.sleep, sleep)
}

func (c *mapCache) shed() {
	for i := range c.shards {
		s := &c.shards[i]
		s.entries, s.order, s.head = map[uint64]mapEntry{}, nil, 0
	}
}

func (c *mapCache) stats() (hits, evictions int64, entries int) {
	for i := range c.shards {
		s := &c.shards[i]
		hits += s.hits
		evictions += s.evictions
		entries += len(s.entries)
	}
	return hits, evictions, entries
}

// TestFPCacheMatchesMapReference drives fpCache and the map-backed
// reference with the same seeded visit streams and requires the same
// prune answer at every visit and the same stats at the end. The
// streams draw fingerprints from a small space, some sharing their low
// 32 bits (the index's home and tag bits) with others; keys of 0–40
// decisions, some at or above 255, often an earlier key of the same
// fingerprint cut short, extended or changed; sleep sets; budgets up to
// unboundedBudget; workers 0–3; capacities of 1–64 entries, so that
// entries are evicted and replaced; and an occasional shed. It also
// checks that no shard keeps an arena chunk that no entry refers to.
func TestFPCacheMatchesMapReference(t *testing.T) {
	pool := []sched.SleepEntry{
		{Proc: 0},
		{Proc: 1, Fp: mem.Footprint{Obj: 7, Kind: mem.AccessRead}},
		{Proc: 2, Processor: 1, Fp: mem.Footprint{Obj: 7, Cell: 3, Kind: mem.AccessWrite}},
		{Proc: 3, Fp: mem.Footprint{Obj: 9}},
	}
	decisions := []int{0, 1, 2, 3, 254, 255, 256, 70000}
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		capacity := 1 + rng.IntN(64)
		workers := []int{1, 2, 4}[rng.IntN(3)]
		flat, ref := newFPCache(capacity, workers), newMapCache(capacity, workers)
		space := 1 + rng.IntN(3*capacity)
		last := map[uint64][]int{}
		for step := 0; step < 2000; step++ {
			if rng.IntN(400) == 0 {
				flat.shed()
				ref.shed()
				continue
			}
			k := uint64(rng.IntN(space))
			fp := mem.Mix(k, 0)
			if k%3 == 0 {
				// Keep the shard bits, share the low bits with others.
				fp = fp&^math.MaxUint32 | k%4
			}
			var key []int
			switch prev := last[fp]; {
			case prev != nil && rng.IntN(2) == 0:
				key = slices.Clone(prev[:rng.IntN(len(prev)+1)])
				for n := rng.IntN(3); n > 0; n-- {
					key = append(key, decisions[rng.IntN(len(decisions))])
				}
			default:
				n := rng.IntN(4)
				if rng.IntN(4) == 0 {
					n = rng.IntN(41)
				}
				for ; n > 0; n-- {
					key = append(key, decisions[rng.IntN(len(decisions))])
				}
			}
			last[fp] = key
			var sleep []sched.SleepEntry
			for _, i := range rng.Perm(len(pool))[:rng.IntN(len(pool)+1)] {
				sleep = append(sleep, pool[i])
			}
			budget := rng.IntN(4)
			if rng.IntN(4) == 0 {
				budget = unboundedBudget
			}
			w := rng.IntN(4)
			got, want := flat.visit(fp, w, key, sleep, budget), ref.visit(fp, w, key, sleep, budget)
			if got != want {
				t.Fatalf("seed %d step %d: visit(%#x, worker %d, key %v, sleep %v, budget %d) = %v, reference %v",
					seed, step, fp, w, key, sleep, budget, got, want)
			}
		}
		gh, ge, gn := flat.stats()
		wh, we, wn := ref.stats()
		if gh != wh || ge != we || gn != wn {
			t.Fatalf("seed %d: stats (hits, evictions, entries) = (%d, %d, %d), reference (%d, %d, %d)",
				seed, gh, ge, gn, wh, we, wn)
		}
		for i := range flat.shards {
			s := &flat.shards[i]
			if err := arenaChunksLive(&s.keys, s.n); err != nil {
				t.Fatalf("seed %d shard %d keys: %v", seed, i, err)
			}
			if err := arenaChunksLive(&s.sleeps, s.n); err != nil {
				t.Fatalf("seed %d shard %d sleeps: %v", seed, i, err)
			}
		}
	}
}

// arenaChunksLive checks that every chunk an arena keeps, other than
// the one being filled, holds a live span, and that the spans number
// at most the shard's entries.
func arenaChunksLive[T any](a *arena[T], entries int) error {
	spans := 0
	for id, c := range a.chunks {
		switch {
		case c == nil && a.live[id] != 0:
			return fmt.Errorf("dropped chunk %d has %d live spans", id, a.live[id])
		case c != nil && a.live[id] == 0 && uint32(id) != a.cur:
			return fmt.Errorf("chunk %d is kept with no live span", id)
		}
		spans += int(a.live[id])
	}
	if spans > entries {
		return fmt.Errorf("%d live spans for %d entries", spans, entries)
	}
	return nil
}

// TestFPCacheBytesPerEntry pins what an entry costs once the cache is
// warm: 140,000 misses with 17-decision keys (the benchmark's reduced
// budget leg makes 140,565 entries, with keys of 17.3 decisions on
// average), at one and at two workers, measured as the live heap's
// growth after a collection. The bound is the 82.7 bytes measured at
// two workers on linux/amd64, plus 25 %.
func TestFPCacheBytesPerEntry(t *testing.T) {
	const entries, keyLen, bound = 140000, 17, 103
	key := make([]int, keyLen)
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := newFPCache(fpCacheEntries, workers)
		for i := 0; i < entries; i++ {
			for j := range key {
				key[j] = (i >> (j % 16)) & 3
			}
			c.visit(mem.Mix(uint64(i), 0), i%workers, key, nil, 4)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		if _, _, n := c.stats(); n != entries {
			t.Fatalf("%d workers: %d entries, want %d", workers, n, entries)
		}
		per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / entries
		t.Logf("%d workers: %.1f bytes per entry", workers, per)
		if per > bound {
			t.Errorf("%d workers: %.1f bytes per entry, want at most %d", workers, per, bound)
		}
	}
}
