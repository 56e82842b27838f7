package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestAtomicAccess(t *testing.T) {
	pkgs := analysistest.Run(t, analysis.AtomicAccess, "testdata/atomicaccess")
	assertNoStaleMarkers(t, pkgs)
}

func TestCtxEscape(t *testing.T) {
	analysistest.Run(t, analysis.CtxEscape, "testdata/ctxescape")
}

func TestDeterminism(t *testing.T) {
	pkgs := analysistest.Run(t, analysis.Determinism, "testdata/determinism")
	assertNoStaleMarkers(t, pkgs)
}

func TestSimOnly(t *testing.T) {
	analysistest.Run(t, analysis.SimOnly, "testdata/simonly")
}

func TestExhaustive(t *testing.T) {
	pkgs := analysistest.Run(t, analysis.Exhaustive, "testdata/exhaustive")
	assertNoStaleMarkers(t, pkgs)
}

func TestWaitFreeBound(t *testing.T) {
	// RunMarkers also validates the fixture's //repro:bound markers:
	// every one must be load-bearing.
	pkgs := analysistest.RunMarkers(t, "testdata/waitfreebound", analysis.WaitFreeBound)
	// The fixture's Decide mirrors unicons.Decide's statement shape; its
	// derived worst-case cost must be exactly 8, with no caveats.
	const decide = "(*repro/internal/analysis/testdata/waitfreebound.Object).Decide"
	for _, pkg := range pkgs {
		facts := pkg.Facts()
		if facts == nil || facts.Funcs[decide] == nil {
			continue
		}
		ff := facts.Funcs[decide]
		if !ff.Op {
			t.Errorf("Decide not classified as an operation")
		}
		if got := ff.Cost.String(); got != "8" {
			t.Errorf("Decide derived cost = %s, want 8", got)
		}
		if len(ff.Incomplete) != 0 {
			t.Errorf("Decide cost incomplete: %v", ff.Incomplete)
		}
		return
	}
	t.Fatalf("no package exported a fact for %s", decide)
}

func TestStatementCharge(t *testing.T) {
	pkgs := analysistest.Run(t, analysis.StatementCharge, "testdata/statementcharge")
	assertNoStaleMarkers(t, pkgs)
}

// TestBoundMarkers exercises the marker validator's bound-specific
// cases — malformed expressions, unknown model parameters, stale
// markers — including markers in an external _test package, which are
// stale by construction (the bound analyzers skip test files).
func TestBoundMarkers(t *testing.T) {
	analysistest.RunMarkers(t, "testdata/boundmarkers", analysis.WaitFreeBound)
}

// TestBoundMarkerMissingReason covers the one grammar error a fixture
// `// want` comment cannot express: trailing text after the expression
// becomes the reason, so a reasonless marker must be built directly.
func TestBoundMarkerMissingReason(t *testing.T) {
	pkg := &analysis.Package{Markers: []*analysis.Marker{
		{Kind: "bound", Key: "n", Reason: ""},
		{Kind: "bound", Key: "", Reason: ""},
	}}
	problems := analysis.MarkerProblems(pkg)
	if len(problems) != 2 {
		t.Fatalf("got %d problems, want 2: %v", len(problems), problems)
	}
	for _, p := range problems {
		if !strings.Contains(p.Message, "malformed //repro:bound marker: want //repro:bound <expr> <reason>") {
			t.Errorf("problem = %q, want the malformed-marker message", p.Message)
		}
	}
}

// assertNoStaleMarkers re-validates that every fixture marker was
// load-bearing for the analyzer under test.
func assertNoStaleMarkers(t *testing.T, pkgs []*analysis.Package) {
	t.Helper()
	for _, pkg := range pkgs {
		for _, d := range analysis.MarkerProblems(pkg) {
			t.Errorf("marker problem: %s", d)
		}
	}
}

// TestScopes pins the driver-level package filters to the disciplines
// in ISSUE/DESIGN: atomicaccess exempts mem+sim, ctxescape exempts sim,
// determinism covers exactly the replay-sensitive packages, simonly
// exactly the algorithm packages.
func TestScopes(t *testing.T) {
	cases := []struct {
		a    *analysis.Analyzer
		pkg  string
		want bool
	}{
		{analysis.AtomicAccess, "repro/internal/mem", false},
		{analysis.AtomicAccess, "repro/internal/sim", false},
		{analysis.AtomicAccess, "repro/internal/sim_test", false},
		{analysis.AtomicAccess, "repro/internal/unicons", true},
		{analysis.AtomicAccess, "repro/cmd/soak", true},
		{analysis.CtxEscape, "repro/internal/sim", false},
		{analysis.CtxEscape, "repro/internal/check", true},
		{analysis.Determinism, "repro/internal/check", true},
		{analysis.Determinism, "repro/internal/artifact", true},
		{analysis.Determinism, "repro/internal/minimize", true},
		{analysis.Determinism, "repro/internal/trace", true},
		{analysis.Determinism, "repro/internal/sim", true},
		{analysis.Determinism, "repro/internal/sched", true},
		{analysis.Determinism, "repro/internal/campaign", true},
		{analysis.Determinism, "repro/internal/store", true},
		{analysis.Determinism, "repro/internal/service", true},
		{analysis.Determinism, "repro/internal/service/jobspec", true},
		{analysis.Determinism, "repro/internal/bench", false},
		{analysis.SimOnly, "repro/internal/unicons", true},
		{analysis.SimOnly, "repro/internal/multicons", true},
		{analysis.SimOnly, "repro/internal/hybridcas", true},
		{analysis.SimOnly, "repro/internal/universal", true},
		{analysis.SimOnly, "repro/internal/qlocal", true},
		{analysis.SimOnly, "repro/internal/renaming", true},
		{analysis.SimOnly, "repro/internal/baseline", true},
		{analysis.SimOnly, "repro/internal/baseline_test", true},
		{analysis.SimOnly, "repro/internal/check", false},
		{analysis.WaitFreeBound, "repro/internal/unicons", true},
		{analysis.WaitFreeBound, "repro/internal/unicons_test", true},
		{analysis.WaitFreeBound, "repro/internal/core", true},
		{analysis.WaitFreeBound, "repro/internal/check", false},
		{analysis.WaitFreeBound, "repro/internal/mem", false},
		{analysis.StatementCharge, "repro/internal/qlocal", true},
		{analysis.StatementCharge, "repro/internal/core", true},
		{analysis.StatementCharge, "repro/internal/sim", false},
		{analysis.StatementCharge, "repro/internal/check", false},
	}
	for _, c := range cases {
		if got := c.a.AppliesTo == nil || c.a.AppliesTo(c.pkg); got != c.want {
			t.Errorf("%s.AppliesTo(%s) = %v, want %v", c.a.Name, c.pkg, got, c.want)
		}
	}
	if analysis.Exhaustive.AppliesTo != nil {
		t.Errorf("exhaustive should apply to every package")
	}
}

func TestAnalyzerInventory(t *testing.T) {
	want := []string{"atomicaccess", "ctxescape", "determinism", "simonly", "exhaustive", "waitfreebound", "statementcharge"}
	got := analysis.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}
	keys := analysis.ValidKeys()
	for _, k := range []string{"post-run", "walltime", "goroutine", "maporder", "rand", "campaign", "service", "ctxescape", "exhaustive", "charge"} {
		if !keys[k] {
			t.Errorf("ValidKeys missing %q", k)
		}
	}
}

func TestMarkerValidation(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.NewLoader(root).LoadDir("testdata/allowmarkers", "repro/internal/analysis/testdata/allowmarkers", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	// Run every analyzer so legitimate markers would be consumed; the
	// fixture's are all defective.
	for _, a := range analysis.Analyzers() {
		if _, err := pkg.Run(a); err != nil {
			t.Fatal(err)
		}
	}
	problems := analysis.MarkerProblems(pkg)
	if len(problems) != 3 {
		t.Fatalf("got %d marker problems, want 3: %v", len(problems), problems)
	}
	for i, wantSub := range []string{"malformed //repro:allow marker", "unknown //repro:allow key frobnicate", "stale //repro:allow post-run marker"} {
		if !strings.Contains(problems[i].Message, wantSub) {
			t.Errorf("problem %d = %q, want containing %q", i, problems[i].Message, wantSub)
		}
	}
}
