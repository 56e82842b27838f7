package sched

import (
	"math/rand"
	"sync"
)

// Source is a math/rand.Source64 that draws exactly the stream
// rand.NewSource draws for the same seed, but builds its state on
// demand. math/rand's Seed fills a 607-word additive lagged Fibonacci
// register by stepping a Lehmer generator 1,841 times in one
// dependent chain (13–20 µs per seed); a soak run seeds four streams
// and most of them read a handful of values. Source makes each
// register word the first time a draw reads it, from a table of the
// Lehmer multiplier's powers, so a stream of k draws makes at most 2k
// words.
//
// The streams must stay bit-identical, not merely as good: a campaign
// re-derives its runs from stored seeds, saved bundles replay by seed,
// and known reproductions live at known run indices, so a different
// generator would silently change every run under the same identity.
//
// Use it as rand.New(NewSource(seed)); every rand.Rand method, Seed
// included, then draws what rand.New(rand.NewSource(seed)) draws. A
// Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	// drawn counts draws since the last Seed, up to rngFeedLen: past
	// that every word a draw reads has been made.
	drawn int
	x0    uint64 // the seed reduced into [1, lehmerMod)
	vec   [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

const (
	rngLen  = 607 // register length (math/rand rngLen)
	rngTap  = 273 // tap distance (math/rand rngTap)
	rngMask = 1<<63 - 1
	// rngFeedLen is the feed index after a Seed: draw k reads word
	// rngFeedLen-k (feed) and word rngLen-k (tap), both mod rngLen.
	rngFeedLen = rngLen - rngTap

	lehmerMul  = 48271
	lehmerMod  = 1<<31 - 1
	lehmerZero = 89482311 // math/rand's stand-in for a seed ≡ 0
	// seedSkip is how many Lehmer steps math/rand discards before word
	// 0; word i is built from steps seedSkip+3i+1 through seedSkip+3i+3.
	seedSkip = 20
)

var (
	tablesOnce sync.Once
	// lehmerPow[n] = lehmerMul^n mod lehmerMod.
	lehmerPow [seedSkip + 3*rngLen + 1]uint64
	// rngCooked is math/rand's unexported seeding mask: seeded word i
	// is the Lehmer-built word XOR rngCooked[i].
	rngCooked [rngLen]int64
)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed rewinds the source to the start of seed's stream.
func (s *Source) Seed(seed int64) {
	tablesOnce.Do(buildTables)
	s.tap, s.feed, s.drawn = 0, rngFeedLen, 0
	s.x0 = reduceSeed(seed)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	// Feed reads each word for the first time during draws 1–334 and
	// tap during draws 1–273; every later read finds a made word.
	if s.drawn < rngFeedLen {
		if s.drawn < rngTap {
			s.vec[s.tap] = seededWord(s.x0, s.tap)
		}
		s.vec[s.feed] = seededWord(s.x0, s.feed)
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// reduceSeed maps seed to the Lehmer state math/rand starts from: seed
// mod lehmerMod, a negative result wrapped, and 0 replaced.
func reduceSeed(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = lehmerZero
	}
	return uint64(seed)
}

// mulMod returns a·b mod lehmerMod for a, b < lehmerMod. Since
// 2³¹ ≡ 1, one fold of the product's high bits onto its low bits
// leaves a value below 2·lehmerMod.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerMod + p>>31
	if p >= lehmerMod {
		p -= lehmerMod
	}
	return p
}

// uncookedWord is word i of the register before the rngCooked mask,
// for Lehmer start x0.
func uncookedWord(x0 uint64, i int) int64 {
	n := seedSkip + 3*i
	return int64(mulMod(lehmerPow[n+1], x0))<<40 ^
		int64(mulMod(lehmerPow[n+2], x0))<<20 ^
		int64(mulMod(lehmerPow[n+3], x0))
}

// seededWord is word i of the register math/rand's Seed fills.
func seededWord(x0 uint64, i int) int64 {
	return uncookedWord(x0, i) ^ rngCooked[i]
}

// buildTables fills lehmerPow, then recovers rngCooked from math/rand's
// own stream for seed 1. Draw k of a fresh register returns
// feed+tap; the first 607 outputs o[k] of seed 1 give words 0–60 and
// 334–606 as o[k]-o[k-273] (draws 274–607, whose tap word holds
// o[k-273] by then), and words 61–333 as o[k] minus tap word 607-k
// (draws 1–273). XOR with seed 1's uncooked words leaves the mask.
func buildTables() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = mulMod(lehmerPow[n-1], lehmerMul)
	}
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]int64 // o[k] is draw k, 1-based
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var v [rngLen]int64 // seed 1's seeded register
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(rngFeedLen-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngFeedLen-k] = o[k] - v[rngLen-k]
	}
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ uncookedWord(1, i)
	}
}
