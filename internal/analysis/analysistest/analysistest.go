// Package analysistest runs a reprolint analyzer over a fixture
// package and checks its diagnostics against `// want "re"` comment
// expectations, mirroring the x/tools analysistest contract on the
// repo's dependency-free analysis framework.
//
// A fixture line producing a diagnostic carries a trailing comment
//
//	code() // want `regexp`   (or: // want "regexp")
//
// (multiple `// want` clauses may appear in one comment; each must
// match a distinct diagnostic on that line). Every diagnostic must be
// wanted and every want must be matched, including suppression: a
// fixture line with a valid //repro:allow marker must produce no
// diagnostic, or the run fails.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+(?:`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\")")

// Run loads the fixture package rooted at dir (relative to the test's
// working directory), runs a over it, and reports mismatches on t. It
// returns the packages it loaded so callers can make further assertions
// (e.g. marker staleness).
func Run(t *testing.T, a *analysis.Analyzer, dir string) []*analysis.Package {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkgs, err := newLoader(t, abs).LoadDir(abs, fixturePath(abs), true)
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("analysistest: no packages in %s", dir)
	}
	for _, pkg := range pkgs {
		diags, err := pkg.Run(a)
		if err != nil {
			t.Fatalf("analysistest: run %s on %s: %v", a.Name, pkg.Path, err)
		}
		checkWants(t, abs, diags)
	}
	return pkgs
}

// RunMarkers loads the fixture package rooted at dir, runs every
// analyzer in as over each of its packages (primary and external test),
// then validates the fixture's //repro:allow and //repro:bound markers
// with analysis.MarkerProblems, and checks the combined diagnostics
// against the dir's `// want` expectations in one pass. Use this for
// fixtures exercising marker grammar and staleness, where the
// diagnostics of several packages and the marker validator must be
// reconciled against one set of expectations.
func RunMarkers(t *testing.T, dir string, as ...*analysis.Analyzer) []*analysis.Package {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkgs, err := newLoader(t, abs).LoadDir(abs, fixturePath(abs), true)
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("analysistest: no packages in %s", dir)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range as {
			ds, err := pkg.Run(a)
			if err != nil {
				t.Fatalf("analysistest: run %s on %s: %v", a.Name, pkg.Path, err)
			}
			diags = append(diags, ds...)
		}
		diags = append(diags, analysis.MarkerProblems(pkg)...)
	}
	checkWants(t, abs, diags)
	return pkgs
}

// newLoader returns a Loader for the module holding the fixture dir, so
// the fixture's module imports resolve in that module.
func newLoader(t *testing.T, dir string) *analysis.Loader {
	t.Helper()
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	return analysis.NewLoader(root)
}

// fixturePath synthesizes a stable module-internal import path for a
// fixture directory so AppliesTo-style filters (bypassed here) and
// diagnostics have something meaningful to print.
func fixturePath(abs string) string {
	base := filepath.Base(abs)
	return "repro/internal/analysis/testdata/" + base
}

type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// checkWants compares diagnostics against the `// want` expectations of
// every fixture file in dir.
func checkWants(t *testing.T, dir string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*want{} // "file:line" → expectations
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
				}
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], &want{re: re, raw: pat})
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched want %q", key, w.raw)
			}
		}
	}
}
