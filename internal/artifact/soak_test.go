package artifact_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/qlocal"
)

// mathRandSoakMeta is SoakMeta's derivation as written against
// math/rand's own rand.NewSource: the reference the on-demand source
// must reproduce bit for bit, since campaigns, bundles and recorded
// reproductions name their runs by (base, crash base, index).
func mathRandSoakMeta(base, crashBase, idx int64, maxCrashes int) (artifact.Meta, artifact.Sched) {
	const golden = 0x9e3779b97f4a7c15
	workSeed := int64(uint64(base) + uint64(idx)*golden)
	rng := rand.New(rand.NewSource(workSeed))
	n := 2 + rng.Intn(6)
	levels := 1 + rng.Intn(3)
	quantum := qlocal.RecommendedQuantum + rng.Intn(32)
	schedSeed := rng.Int63()

	meta := artifact.Meta{
		Workload: "soakmix",
		N:        n,
		V:        levels,
		Quantum:  quantum,
		MaxSteps: 1 << 22,
		WorkSeed: workSeed,
	}
	s := artifact.Sched{Random: true, Seed: schedSeed}
	if k := min(maxCrashes, n-1); k > 0 {
		s.CrashSeed = int64(uint64(crashBase) + uint64(idx)*golden)
		s.MaxCrashes = k
	}
	return meta, s
}

// TestSoakMetaMatchesMathRand: for run indices 0–9,999 under three
// campaign identities, SoakMeta derives exactly the Meta and Sched the
// math/rand derivation does.
func TestSoakMetaMatchesMathRand(t *testing.T) {
	ids := []struct {
		base, crash int64
		maxCrashes  int
	}{
		{1, 0, 2},
		{11, 13, 6},
		{math.MinInt64 + 7, math.MaxInt64, 0},
	}
	for _, id := range ids {
		for idx := int64(0); idx < 10_000; idx++ {
			gm, gs := artifact.SoakMeta(id.base, id.crash, idx, id.maxCrashes)
			wm, ws := mathRandSoakMeta(id.base, id.crash, idx, id.maxCrashes)
			if !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(gs, ws) {
				t.Fatalf("base %d crash %d idx %d: SoakMeta = %+v %+v, math/rand derivation = %+v %+v",
					id.base, id.crash, idx, gm, gs, wm, ws)
			}
		}
	}
}
