package mem_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestRegInitialBottom(t *testing.T) {
	r := mem.NewReg("r")
	if r.Load() != mem.Bottom {
		t.Fatalf("fresh register = %d, want ⊥", r.Load())
	}
	if r.Name() != "r" {
		t.Fatalf("name = %q", r.Name())
	}
}

// TestRegStoreLoadRoundTrip: a register returns exactly what was stored.
func TestRegStoreLoadRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		r := mem.NewReg("r")
		r.Store(v)
		return r.Load() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegLastWriteWins: after any store sequence, Load returns the last.
func TestRegLastWriteWins(t *testing.T) {
	f := func(vs []uint64) bool {
		if len(vs) == 0 {
			return true
		}
		r := mem.NewReg("r")
		for _, v := range vs {
			r.Store(v)
		}
		return r.Load() == vs[len(vs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegArrayNamesAndInit(t *testing.T) {
	rs := mem.NewRegArray("A", 3)
	if len(rs) != 3 {
		t.Fatalf("len = %d", len(rs))
	}
	if rs[1].Name() != "A[1]" {
		t.Fatalf("name = %q", rs[1].Name())
	}
	for _, r := range rs {
		if r.Load() != mem.Bottom {
			t.Fatal("array register not ⊥")
		}
	}
	rs2 := mem.NewRegArrayInit("B", 2, 7)
	if rs2[0].Load() != 7 || rs2[1].Load() != 7 {
		t.Fatal("init array wrong values")
	}
}

func TestRegMatrixShape(t *testing.T) {
	m := mem.NewRegMatrix("M", 2, 3)
	if len(m) != 2 || len(m[0]) != 3 {
		t.Fatalf("shape = %dx%d", len(m), len(m[0]))
	}
	if m[1][2].Name() != "M[1][2]" {
		t.Fatalf("name = %q", m[1][2].Name())
	}
	mi := mem.NewRegMatrixInit("N", 2, 2, 5)
	if mi[1][1].Load() != 5 {
		t.Fatal("matrix init wrong")
	}
}

// TestConsObjectSemantics checks the paper's C-consensus model: the
// first proposal is decided; invocations 2..C see it; invocations > C
// see ⊥ — for arbitrary C and proposal sequences.
func TestConsObjectSemantics(t *testing.T) {
	f := func(cRaw uint8, props []uint32) bool {
		c := int(cRaw%8) + 1
		o := mem.NewConsObject("o", c)
		if o.Decided() != mem.Bottom || o.C() != c {
			return false
		}
		for i, p := range props {
			got := o.Invoke(mem.Word(p))
			switch {
			case i >= c:
				if got != mem.Bottom {
					return false
				}
			case i == 0:
				if got != mem.Word(p) {
					return false
				}
			default:
				if got != mem.Word(props[0]) {
					return false
				}
			}
		}
		return o.Invocations() == len(props)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConsObjectPanicsOnBadC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for C=0")
		}
	}()
	mem.NewConsObject("bad", 0)
}

func TestConsArray(t *testing.T) {
	os := mem.NewConsArray("O", 4, 2)
	if len(os) != 4 {
		t.Fatalf("len = %d", len(os))
	}
	for _, o := range os {
		if o.C() != 2 {
			t.Fatal("wrong C")
		}
	}
	if os[2].Name() != "O[2]" {
		t.Fatalf("name = %q", os[2].Name())
	}
}

// TestCASObjectSemantics checks the baseline hardware-CAS word.
func TestCASObjectSemantics(t *testing.T) {
	f := func(init, old, new uint64) bool {
		o := mem.NewCASObject("c", init)
		ok := o.CompareAndSwap(old, new)
		if init == old {
			return ok && o.Load() == new
		}
		return !ok && o.Load() == init
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArrayNamesMatchFmt pins the names the array constructors build by
// concatenation to the fmt form they were built with before, byte for
// byte: mem.HashName turns names into the object ids that footprints,
// fingerprints, sleep sets and exported frontiers carry.
func TestArrayNamesMatchFmt(t *testing.T) {
	const n, m = 12, 11
	check := func(got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
	for i, r := range mem.NewRegArray("a.P", n) {
		check(r.Name(), fmt.Sprintf("%s[%d]", "a.P", i))
	}
	for i, r := range mem.NewRegArrayInit("b", n, 7) {
		check(r.Name(), fmt.Sprintf("%s[%d]", "b", i))
	}
	for i, o := range mem.NewConsArray("c.cons", n, 3) {
		check(o.Name(), fmt.Sprintf("%s[%d]", "c.cons", i))
	}
	for _, rows := range [][][]*mem.Reg{mem.NewRegMatrix("d", n, m), mem.NewRegMatrixInit("d", n, m, 0)} {
		for i, row := range rows {
			for j, r := range row {
				check(r.Name(), fmt.Sprintf("%s[%d][%d]", "d", i, j))
			}
		}
	}
}
