package universal

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/multicons"
)

// TestSlotNamesMatchFmt pins the names of the lazily created slot and
// val registers, built by concatenation, to the fmt form they were
// built with before, byte for byte: mem.HashName turns names into the
// object ids that footprints, fingerprints, sleep sets and exported
// frontiers carry.
func TestSlotNamesMatchFmt(t *testing.T) {
	const k = 12
	uni := NewCounter("ctr", 0).o.u
	uni.ensure(k)
	multi := NewMulti(multicons.Config{Name: "mu", P: 2, M: 1, V: 1}, mem.Word(0), counterApply).u
	multi.ensure(k)
	for i := 1; i <= k; i++ { // slot 0 is the initial state, with no consensus
		for _, c := range []struct{ got, want string }{
			{uni.vals[i].Name(), fmt.Sprintf("%s.val[%d]", "ctr", i)},
			{uni.slots[i].(uniSlot).o.P[0].Name(), fmt.Sprintf("%s.slot[%d]", "ctr", i) + ".P[0]"},
			{multi.vals[i].Name(), fmt.Sprintf("%s.val[%d]", "mu", i)},
			{multi.slots[i].(multiSlot).decided.Name(), fmt.Sprintf("%s.slot[%d]", "mu", i) + ".decided"},
		} {
			if c.got != c.want {
				t.Errorf("name %q, want %q", c.got, c.want)
			}
		}
	}
}
