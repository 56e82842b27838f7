package exporttest_test

import (
	"testing"

	"repro/internal/analysis/testdata/exporttest"
	"repro/internal/analysis/testdata/exporttest/wrap"
	"repro/internal/analysis/testdata/exporttest/wrap/deep"
)

func TestN(t *testing.T) {
	c, e := wrap.New(), deep.Make()
	c.Inc()
	var d exporttest.Counter = *c
	if c.N() != 1 || d.N() != 1 || e.N() != 0 {
		t.Fail()
	}
}
