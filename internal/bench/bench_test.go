package bench_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/unicons"
)

// pinSeries checks a scaling series' statement counts against the
// exact values cmd/scaling prints at seed 1.
func pinSeries(t *testing.T, name string, pts []bench.ScalingPoint, want ...int64) {
	t.Helper()
	got := make([]int64, len(pts))
	for i, p := range pts {
		got[i] = p.Stmts
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s stmts/op = %v, want %v", name, got, want)
	}
}

func TestFig3ScalingIsConstant(t *testing.T) {
	pts := bench.Fig3Scaling([]int{1, 2, 4, 8, 16, 32, 64, 128}, 1)
	for _, p := range pts {
		if p.Stmts != unicons.Stmts {
			t.Fatalf("n=%d: stmts/op = %d, want exactly %d", p.X, p.Stmts, unicons.Stmts)
		}
	}
}

func TestFig5ScalingShape(t *testing.T) {
	pts := bench.Fig5Scaling([]int{1, 2, 4, 8, 16, 32}, 4, 2, 1)
	pinSeries(t, "E4", pts, 135, 80, 66, 82, 114, 178)
	pinSeries(t, "E4b", bench.Fig5ScalingN([]int{2, 4, 8, 16}, 4, 2, 1), 48, 66, 105, 144)
	// Growth from V=4 to V=16 must be bounded by a generous linear
	// factor (scan costs 2 statements per level plus retry headroom).
	if pts[4].Stmts-pts[2].Stmts > 12*40 {
		t.Fatalf("V=4→16 growth %d too steep for O(V)", pts[4].Stmts-pts[2].Stmts)
	}
}

func TestFig7ScalingRuns(t *testing.T) {
	pinSeries(t, "E5", bench.Fig7Scaling([]int{1, 2, 3, 4, 6}, 2, 1, 1, 2048, 1), 265, 485, 705, 925, 1365)
}

func TestTable1SweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	for _, tc := range []struct {
		m, seeds int
		grid     []int
		want     []bench.Table1Row
	}{
		{2, 5, []int{1, 8, 64, 512, 2048}, []bench.Table1Row{
			{C: 2, K: 0, MinWorkingQ: 1, PaperFactor: 3},
			{C: 3, K: 1, MinWorkingQ: 1, PaperFactor: 2},
			{C: 4, K: 2, MinWorkingQ: 1, PaperFactor: 2},
		}},
		// The frontier `make experiments` prints for M=3, on the grid
		// points either side of it.
		{3, 5, []int{2, 4, 12, 16}, []bench.Table1Row{
			{C: 2, K: 0, MinWorkingQ: 16, MaxFailingQ: 12, PaperFactor: 3},
			{C: 3, K: 1, MinWorkingQ: 4, MaxFailingQ: 2, PaperFactor: 2},
			{C: 4, K: 2, MinWorkingQ: 16, MaxFailingQ: 12, PaperFactor: 2},
		}},
	} {
		rows := bench.Table1Sweep(2, tc.m, 1, tc.seeds, tc.grid, 0)
		if !slices.Equal(rows, tc.want) {
			t.Errorf("M=%d grid %v: rows\n%+v\nwant\n%+v", tc.m, tc.grid, rows, tc.want)
		}
		out := bench.RenderTable1(2, tc.m, 1, rows)
		if !strings.Contains(out, "Table 1 reproduction") {
			t.Fatalf("bad render:\n%s", out)
		}
		t.Logf("\n%s", out)
	}
}

// TestTable1SweepRejectsZeroSizes pins that a size below 1 stops the
// sweep instead of running the workload registry's default size under
// a table labelled with the size given.
func TestTable1SweepRejectsZeroSizes(t *testing.T) {
	for _, pmv := range [][3]int{{0, 2, 1}, {2, 0, 1}, {2, 2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Table1Sweep with P, M, V = %v did not panic", pmv)
				}
			}()
			bench.Table1Sweep(pmv[0], pmv[1], pmv[2], 1, []int{8}, 1)
		}()
	}
}

func TestExpBaselineCurve(t *testing.T) {
	out := bench.ExpBaselineCurve([]int{1, 2, 4, 8}, 2, 1, 2)
	if !strings.Contains(out, "2^V") {
		t.Fatalf("bad render:\n%s", out)
	}
}

// TestMeasureReductionRatio pins the headline reduction claim: on the
// benchmark configuration, full reduction explores at least 5x fewer
// schedules than the plain enumeration for the same verdict.
// (MeasureReduction itself errors out if the verdicts disagree.)
func TestMeasureReductionRatio(t *testing.T) {
	rb, err := bench.MeasureReduction(1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Ratio < 5 {
		t.Errorf("reduction ratio %.1fx (plain %d, reduced %d), want >= 5x",
			rb.Ratio, rb.PlainSchedules, rb.ReducedSchedules)
	}
	if rb.ReducedSchedules <= 0 || rb.PlainSchedules <= rb.ReducedSchedules {
		t.Errorf("implausible schedule counts: plain %d, reduced %d", rb.PlainSchedules, rb.ReducedSchedules)
	}
}
