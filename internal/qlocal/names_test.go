package qlocal

import (
	"fmt"
	"testing"
)

// TestChainNamesMatchFmt pins the names of the lazily created chain
// cells and values, built by concatenation, to the fmt form they were
// built with before, byte for byte: mem.HashName turns names into the
// object ids that footprints, fingerprints, sleep sets and exported
// frontiers carry.
func TestChainNamesMatchFmt(t *testing.T) {
	const k = 12
	o := New("q.Hd[1]", 0)
	o.ensure(k)
	for i := 0; i <= k; i++ {
		if got, want := o.vals[i].Name(), fmt.Sprintf("%s.val[%d]", "q.Hd[1]", i); got != want {
			t.Errorf("val name %q, want %q", got, want)
		}
		if i == 0 {
			continue // cells[0] is unused
		}
		if got, want := o.cells[i].P[0].Name(), fmt.Sprintf("%s.cell[%d]", "q.Hd[1]", i)+".P[0]"; got != want {
			t.Errorf("cell name %q, want %q", got, want)
		}
	}
}
