package sched_test

import (
	"math"
	"testing"

	"repro/internal/sched"
)

// TestRandStreamGolden pins the one seeded generator: the first draws
// of NewRand at the seed edges. Every fuzz sweep, soak campaign, crash
// plan and saved seeded bundle names its runs by these streams, so a
// change here re-derives all of them under the same names.
func TestRandStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want [4]uint64
	}{
		{0, [4]uint64{0xd894e044cbaf05bf, 0x90d1e5efebe2da6, 0x6f8996a1bdb067aa, 0x2c5a2cdc697f3e26}},
		{1, [4]uint64{0xe90dc370587fb050, 0xd9d4c839b40d924b, 0x5ad720fdd9fa138b, 0x50b6be371333a13}},
		{-1, [4]uint64{0x2537d86a90e9306b, 0xa94faa8460e31a9a, 0x973e9a3a9dd192d7, 0xe3fecf8839dbd23}},
		{math.MaxInt64, [4]uint64{0xe1203b0df1010722, 0xb82387ac3a5f7d7d, 0xeaa1ca37c2f6f589, 0xfed0103d5e01ab6a}},
		{math.MinInt64, [4]uint64{0xbe68481f62030519, 0x248aa70dd23ae296, 0xdcccbc8313f847c1, 0x3f18fc0c8a551fd0}},
	} {
		fresh := sched.NewRand(tc.seed)
		used := sched.NewRand(tc.seed ^ 0x5a5a)
		used.Uint64()
		used.Reseed(tc.seed)
		for i, want := range tc.want {
			if got := fresh.Uint64(); got != want {
				t.Errorf("NewRand(%d) draw %d = %#x, want %#x", tc.seed, i, got, want)
			}
			if got := used.Uint64(); got != want {
				t.Errorf("Reseed(%d) draw %d = %#x, want %#x", tc.seed, i, got, want)
			}
		}
	}
}
