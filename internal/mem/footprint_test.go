package mem_test

import (
	"testing"

	"repro/internal/mem"
)

func TestFootprintCommutes(t *testing.T) {
	a := mem.HashName("A")
	b := mem.HashName("B")
	fp := func(obj uint64, cell int, kind mem.AccessKind) mem.Footprint {
		return mem.Footprint{Obj: obj, Cell: cell, Kind: kind}
	}
	cases := []struct {
		name string
		f, g mem.Footprint
		want bool
	}{
		{"zero-zero", mem.Footprint{}, mem.Footprint{}, true},
		{"zero-write", mem.Footprint{}, fp(a, -1, mem.AccessWrite), true},
		{"local-cons", fp(0, -1, mem.AccessLocal), fp(a, -1, mem.AccessCons), true},
		{"distinct-objects", fp(a, -1, mem.AccessWrite), fp(b, -1, mem.AccessWrite), true},
		{"distinct-cons", fp(a, -1, mem.AccessCons), fp(b, -1, mem.AccessCons), true},
		{"read-read", fp(a, -1, mem.AccessRead), fp(a, -1, mem.AccessRead), true},
		{"read-write", fp(a, -1, mem.AccessRead), fp(a, -1, mem.AccessWrite), false},
		{"write-write", fp(a, -1, mem.AccessWrite), fp(a, -1, mem.AccessWrite), false},
		{"cons-read", fp(a, -1, mem.AccessCons), fp(a, -1, mem.AccessRead), false},
		{"cons-write", fp(a, -1, mem.AccessCons), fp(a, -1, mem.AccessWrite), false},
		{"cons-cons", fp(a, -1, mem.AccessCons), fp(a, -1, mem.AccessCons), false},
	}
	for _, tc := range cases {
		if got := tc.f.Commutes(tc.g); got != tc.want {
			t.Errorf("%s: Commutes = %v, want %v", tc.name, got, tc.want)
		}
		// Commutation is symmetric by definition.
		if got := tc.g.Commutes(tc.f); got != tc.want {
			t.Errorf("%s (swapped): Commutes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestHashNameStableAndDistinct(t *testing.T) {
	if mem.HashName("shared") != mem.HashName("shared") {
		t.Error("HashName not stable across calls")
	}
	if mem.HashName("a") == mem.HashName("b") {
		t.Error("HashName collides on distinct short names")
	}
	if mem.HashName("") == 0 || mem.HashName("a") == 0 {
		t.Error("HashName returned the reserved no-object id 0")
	}
}

// TestMixOrderSensitive checks Mix over ranges rather than one pair:
// for each fixed h, Mix(h, ·) must not collide on a run of small values
// (the counters and ids fingerprints fold in), and folding two distinct
// values in either order must give distinct hashes over a grid of pairs;
// otherwise fingerprints would conflate distinct histories.
func TestMixOrderSensitive(t *testing.T) {
	const span = 1 << 16
	for _, h := range []uint64{0, 1, 0x12345, mem.HashName("x"), mem.Bottom} {
		seen := make(map[uint64]uint64, span)
		for v := uint64(0); v < span; v++ {
			m := mem.Mix(h, v)
			if prev, dup := seen[m]; dup {
				t.Fatalf("Mix(%#x, %d) == Mix(%#x, %d) = %#x", h, v, h, prev, m)
			}
			seen[m] = v
		}
		for a := uint64(0); a < 64; a++ {
			for b := a + 1; b < 64; b++ {
				if mem.Mix(mem.Mix(h, a), b) == mem.Mix(mem.Mix(h, b), a) {
					t.Fatalf("Mix(%#x, ·) folds %d and %d order-insensitively", h, a, b)
				}
			}
		}
	}
}
