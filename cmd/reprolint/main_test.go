package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestRepoLintsClean is the dogfood gate: the repo itself must produce
// zero findings, with every //repro:allow and //repro:bound marker
// load-bearing. Because marker consumption is the only way a marker
// counts as used, this single assertion also proves that removing any
// marker (or the finding/loop it covers) fails the lint — in
// particular, baseline.LockCounter's spin loop fails waitfreebound the
// moment its `unbounded` marker is deleted.
func TestRepoLintsClean(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.RunDriver(analysis.DriverOptions{
		Root:  root,
		Tests: true,
		// Hermetic: never read or write the working tree's cache.
		Cache: false,
	})
	if err != nil {
		t.Fatalf("reprolint: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}

	// The derived bounds report must re-derive the paper's Theorem 1
	// constant from source: unicons.Decide is exactly 8 statements,
	// with no incompleteness caveats.
	var decide *analysis.OpBound
	for i := range res.Bounds.Ops {
		op := &res.Bounds.Ops[i]
		if op.Func == "(*repro/internal/unicons.Object).Decide" {
			decide = op
		}
	}
	if decide == nil {
		t.Fatal("bounds report is missing unicons.Decide")
	}
	if decide.Bound != "8" || len(decide.Incomplete) != 0 {
		t.Errorf("unicons.Decide derived bound = %q (incomplete %v), want exactly 8",
			decide.Bound, decide.Incomplete)
	}
}

// TestRelativeOutputPaths pins that relative -o, -bounds and -cache-dir
// paths name files under the working directory, not the module root:
// the binary runs from a package directory of a small module, and every
// file it writes must land there.
func TestRelativeOutputPaths(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "reprolint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	root := t.TempDir()
	sub := filepath.Join(root, "internal", "a")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for path, content := range map[string]string{
		filepath.Join(root, "go.mod"): "module probe\n\ngo 1.23\n",
		filepath.Join(sub, "a.go"):    "package a\n\n// A is exported.\nfunc A() int { return 1 }\n",
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(bin, "-format", "json", "-o", "probe-out.json", "-bounds", "probe-bounds.json",
		"-cache-dir", "probe-cache", "./internal/a")
	cmd.Dir = sub
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("reprolint: %v\n%s", err, out)
	}
	for _, name := range []string{"probe-out.json", "probe-bounds.json", "probe-cache"} {
		if _, err := os.Stat(filepath.Join(sub, name)); err != nil {
			t.Errorf("%s not written under the working directory: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(root, name)); err == nil {
			t.Errorf("%s written under the module root", name)
		}
	}
}
