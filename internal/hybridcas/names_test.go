package hybridcas

import (
	"fmt"
	"testing"
)

// TestNamesMatchFmt pins the names of the head objects, the lazily
// allocated cells and the Active registers, built by concatenation, to
// the fmt form they were built with before, byte for byte: mem.HashName
// turns names into the object ids that footprints, fingerprints, sleep
// sets and exported frontiers carry.
func TestNamesMatchFmt(t *testing.T) {
	check := func(got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
	const levels = 11
	o := NewReclaiming("cas", levels, 124, 0, 1)
	for v := 1; v <= levels; v++ {
		check(o.hd[v].Hint().Name(), fmt.Sprintf("%s.Hd[%d]", "cas", v)+".cur")
	}
	for _, id := range []int{0, 9, 10, 11, 123} {
		for tag := 0; tag < 12; tag++ {
			k, cl := o.newCell(id)
			cell := fmt.Sprintf("%s.cell[%d,%d]", "cas", k.id, k.tag)
			check(cl.val.Name(), cell+".val")
			check(cl.nxt.P[0].Name(), cell+".nxt.P[0]")
			check(cl.depth.Name(), cell+".depth")
		}
		check(o.rec.activeReg(id).Name(), fmt.Sprintf("active[%d]", id))
	}
}
