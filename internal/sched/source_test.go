package sched

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// streamSeeds returns the seeds the stream tests cover: math/rand's
// seed-reduction edges plus 500 spread over the whole int64 range.
func streamSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, lehmerMod, -lehmerMod, lehmerMod - 1, -(lehmerMod - 1),
		lehmerMod + 1, -(lehmerMod + 1), 2 * lehmerMod, -2 * lehmerMod,
		lehmerZero, -lehmerZero, lehmerZero + lehmerMod,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32,
	}
	for i := uint64(0); i < 500; i++ {
		x := splitmix64(i)
		if i%2 == 0 {
			x %= 1 << 20 // small seeds, the common case
		}
		seeds = append(seeds, int64(x))
	}
	return seeds
}

// drawMix draws n values from r through the methods soak runs and
// choosers use, cycling so every method lands at every register
// position, and returns them as bits.
func drawMix(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		var v uint64
		switch i % 7 {
		case 0:
			v = uint64(r.Int63())
		case 1:
			v = r.Uint64()
		case 2:
			v = uint64(r.Intn(1 + i%13))
		case 3:
			v = math.Float64bits(r.Float64())
		case 4:
			v = uint64(r.Intn(1<<40 + i)) // the Int63n path
		case 5:
			v = uint64(r.Int31n(1 << 30))
		default:
			v = uint64(r.Intn(4))
		}
		out = append(out, v)
	}
	return out
}

// sameStream fails the test at the first draw where got and want
// differ.
func sameStream(t *testing.T, what string, seed int64, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: draw %d is %#x, math/rand drew %#x", what, seed, i, got[i], want[i])
		}
	}
}

// TestSourceMatchesMathRand: rand.New(NewSource(s)) draws exactly what
// rand.New(rand.NewSource(s)) draws, past the register's 607-word
// wrap, and again after a mid-stream Seed.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := streamSeeds()
	for i, seed := range seeds {
		got := rand.New(NewSource(seed))
		want := rand.New(rand.NewSource(seed))
		sameStream(t, "fresh", seed, drawMix(got, 1500), drawMix(want, 1500))

		// Reseed mid-stream, at a draw count that varies with i so the
		// rewind lands inside and past the on-demand window.
		next := seeds[(i+1)%len(seeds)]
		sameStream(t, "mid-stream", seed, drawMix(got, i%700), drawMix(want, i%700))
		got.Seed(next)
		want.Seed(next)
		sameStream(t, "reseeded", next, drawMix(got, 1300), drawMix(want, 1300))
	}
}

// TestSourceFirstUseConcurrent: eight goroutines seed sources at once
// while the package's tables are still unbuilt, and every stream still
// matches math/rand's. Run under -race, it checks that the tables are
// built once and published to every goroutine.
func TestSourceFirstUseConcurrent(t *testing.T) {
	// Put the package back in its never-seeded state; no other test in
	// this package runs in parallel.
	tablesOnce = sync.Once{}
	lehmerPow = [len(lehmerPow)]uint64{}
	rngCooked = [rngLen]int64{}

	const workers, draws = 8, 700
	start := make(chan struct{})
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w] = drawMix(rand.New(NewSource(int64(w)*7919-3)), draws)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 0; w < workers; w++ {
		seed := int64(w)*7919 - 3
		sameStream(t, "first use", seed, got[w], drawMix(rand.New(rand.NewSource(seed)), draws))
	}
}

// BenchmarkSeedOneDraw compares a new source plus one draw, the shape
// of most soak streams, against math/rand's.
func BenchmarkSeedOneDraw(b *testing.B) {
	b.Run("sched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += rand.New(NewSource(int64(i))).Int63()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += rand.New(rand.NewSource(int64(i))).Int63()
		}
	})
}

// BenchmarkReseed300 compares a reseed plus 300 draws, the shape of a
// pooled Random chooser's run.
func BenchmarkReseed300(b *testing.B) {
	for _, bc := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"sched", rand.New(NewSource(1))},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.rng.Seed(int64(i))
				for k := 0; k < 300; k++ {
					benchSink += int64(bc.rng.Intn(3))
				}
			}
		})
	}
}

var benchSink int64
