package analysis_test

import (
	"bytes"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

func TestValidPattern(t *testing.T) {
	for _, p := range []string{".", "./...", "./internal/mem", "./internal/sim/...", "./cmd/reprolint"} {
		if err := analysis.ValidPattern(p); err != nil {
			t.Errorf("ValidPattern(%q) = %v, want nil", p, err)
		}
	}
	for _, p := range []string{"", "internal/mem", "./", "./a//b", "./../escape", "./a/../b", "/abs"} {
		if err := analysis.ValidPattern(p); err == nil {
			t.Errorf("ValidPattern(%q) = nil, want error", p)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("FindModuleRoot returned %s with no go.mod: %v", root, err)
	}
}

// TestDriverCacheWarm pins the incremental cache contract: a cold run
// analyzes every needed package, an immediate re-run over unchanged
// sources answers entirely from the cache with identical results.
func TestDriverCacheWarm(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	opts := analysis.DriverOptions{
		Root:     root,
		Patterns: []string{"./internal/mem"},
		Cache:    true,
		CacheDir: t.TempDir(),
	}
	cold, err := analysis.RunDriver(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheMisses != cold.Analyzed || cold.CacheHits != 0 {
		t.Errorf("cold run: hits=%d misses=%d analyzed=%d, want all misses",
			cold.CacheHits, cold.CacheMisses, cold.Analyzed)
	}
	warm, err := analysis.RunDriver(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Analyzed || warm.CacheMisses != 0 {
		t.Errorf("warm run: hits=%d misses=%d analyzed=%d, want all hits",
			warm.CacheHits, warm.CacheMisses, warm.Analyzed)
	}
	if len(warm.Diags) != len(cold.Diags) {
		t.Errorf("warm run diags = %d, cold = %d", len(warm.Diags), len(cold.Diags))
	}
	for i := range warm.Diags {
		if warm.Diags[i] != cold.Diags[i] {
			t.Errorf("diag %d: warm %v != cold %v", i, warm.Diags[i], cold.Diags[i])
		}
	}
}

// TestDriverUnknownPattern pins the driver's selection error.
func TestDriverUnknownPattern(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.RunDriver(analysis.DriverOptions{
		Root:     root,
		Patterns: []string{"./no/such/dir"},
	}); err == nil {
		t.Fatal("expected an error for a pattern matching nothing")
	}
}

// writeModule writes files (slash-separated path → content) under a
// fresh temporary directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestDriverResolvesModuleFromRoot pins that module imports resolve
// under DriverOptions.Root, not the process's working directory. The
// module shares this repository's module path, but internal/b uses a
// symbol only its own internal/a declares, so resolving internal/a
// anywhere else fails the type-check.
func TestDriverResolvesModuleFromRoot(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":          "module repro\n\ngo 1.23\n",
		"internal/a/a.go": "package a\n\nimport \"strings\"\n\n// OnlyInProbeModule is declared nowhere else.\nfunc OnlyInProbeModule(s string) string { return strings.ToUpper(s) }\n",
		"internal/b/b.go": "package b\n\nimport \"repro/internal/a\"\n\n// Use calls into internal/a.\nfunc Use() string { return a.OnlyInProbeModule(\"b\") }\n",
	})
	run := func(t *testing.T) {
		res, err := analysis.RunDriver(analysis.DriverOptions{
			Root: root, Patterns: []string{"./internal/b"}, Tests: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Analyzed != 2 || len(res.Diags) != 0 {
			t.Errorf("analyzed %d dirs with %d findings %v, want 2 and none", res.Analyzed, len(res.Diags), res.Diags)
		}
	}
	t.Run("inside another module", run)
	t.Run("outside any module", func(t *testing.T) {
		prev, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.Chdir(prev); err != nil {
				t.Error(err)
			}
		}()
		run(t)
	})
}

// TestDriverCacheCoversTestImports pins that a dir's cache entry covers
// what only its test files import: the packages they import directly
// and those packages' own dependencies. An edit there that breaks the
// dir's external test package must fail the next cached run exactly as
// it fails an uncached one, though the dir's own files and non-test
// dependencies are unchanged.
func TestDriverCacheCoversTestImports(t *testing.T) {
	for _, tc := range []struct {
		name, file, edit, want string
	}{
		{
			// b's test calls c.Make, which is renamed.
			name: "direct",
			file: "c/c.go",
			edit: "package c\n\nimport \"m/a\"\n\n// MakeRenamed returns an a.T.\nfunc MakeRenamed() a.T { return 1 }\n",
			want: "undefined: c.Make",
		},
		{
			// b's test converts c.Make's a.T to int, and a.T becomes a
			// string under c.
			name: "through a dependency",
			file: "a/a.go",
			edit: "package a\n\n// T is what c.Make returns.\ntype T string\n",
			want: "cannot convert",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := writeModule(t, map[string]string{
				"go.mod":      "module m\n\ngo 1.23\n",
				"a/a.go":      "package a\n\n// T is what c.Make returns.\ntype T int\n",
				"c/c.go":      "package c\n\nimport \"m/a\"\n\n// Make returns an a.T.\nfunc Make() a.T { return 1 }\n",
				"b/b.go":      "package b\n\n// Two returns two.\nfunc Two() int { return 2 }\n",
				"b/b_test.go": "package b_test\n\nimport (\n\t\"testing\"\n\n\t\"m/b\"\n\t\"m/c\"\n)\n\nfunc TestSum(t *testing.T) {\n\tif b.Two()+int(c.Make()) != 3 {\n\t\tt.Fail()\n\t}\n}\n",
			})
			opts := analysis.DriverOptions{Root: root, Patterns: []string{"./b"}, Tests: true, Cache: true, CacheDir: t.TempDir()}
			res, err := analysis.RunDriver(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Analyzed != 1 || len(res.Diags) != 0 {
				t.Fatalf("cold run analyzed %d dirs with findings %v, want 1 and none", res.Analyzed, res.Diags)
			}
			if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(tc.file)), []byte(tc.edit), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, cache := range []bool{true, false} {
				opts.Cache = cache
				if _, err := analysis.RunDriver(opts); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("after the edit, cache %v: error %v, want %q", cache, err, tc.want)
				}
			}
		})
	}
}

// TestLoaderExternalTestSeesExportTest pins the export_test.go idiom: an
// external test package sees what its package's in-package test files
// declare, as go test builds it. The fixture's external test calls a
// method export_test.go adds, on values from wrap, whose declarations
// name the package under test, and from wrap/deep, whose declarations
// reach it through wrap; so both must be re-checked against the package
// with its test files.
func TestLoaderExternalTestSeesExportTest(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	const path = "repro/internal/analysis/testdata/exporttest"
	loader := analysis.NewLoader(root)
	pkgs, err := loader.LoadDir(filepath.Join("testdata", "exporttest"), path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[1].Path != path+"_test" {
		t.Fatalf("loaded %d packages, want the primary and %s_test", len(pkgs), path)
	}
	primary, external := pkgs[0].Types, pkgs[1].Types
	imports := map[string]*types.Package{}
	for _, imp := range external.Imports() {
		imports[imp.Path()] = imp
	}
	if imports[path] != primary {
		t.Errorf("%s_test imports a %s other than the primary package", path, path)
	}
	wrap, deep := imports[path+"/wrap"], imports[path+"/wrap/deep"]
	if wrap == nil || !slices.Contains(wrap.Imports(), primary) {
		t.Errorf("%s_test's wrap is not checked against the primary package", path)
	}
	if deep == nil || !slices.Contains(deep.Imports(), wrap) {
		t.Errorf("%s_test's wrap/deep is not checked against its wrap", path)
	}
}

// TestDriverDeterministicAcrossParallelism pins that the shared
// importer leaves results independent of scheduling: every worker count
// gives the same findings and a byte-identical bounds report.
func TestDriverDeterministicAcrossParallelism(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var firstDiags []analysis.Diagnostic
	var firstBounds []byte
	for i, workers := range []int{1, 2, 8} {
		res, err := analysis.RunDriver(analysis.DriverOptions{
			Root: root, Tests: true, Cache: false, Parallelism: workers})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		var bounds bytes.Buffer
		if err := analysis.WriteBoundsReport(&bounds, res.Bounds); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstDiags, firstBounds = res.Diags, bounds.Bytes()
			continue
		}
		if !reflect.DeepEqual(res.Diags, firstDiags) {
			t.Errorf("parallelism %d: diags %v, want %v", workers, res.Diags, firstDiags)
		}
		if !bytes.Equal(bounds.Bytes(), firstBounds) {
			t.Errorf("parallelism %d: bounds report differs from parallelism 1", workers)
		}
	}
}

// TestDriverNeedsNoCCompiler pins that imports are type-checked without
// cgo: internal/service reaches net, whose cgo files would need a C
// compiler.
func TestDriverNeedsNoCCompiler(t *testing.T) {
	t.Setenv("CC", "/bin/false")
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.RunDriver(analysis.DriverOptions{
		Root: root, Patterns: []string{"./internal/service"}, Tests: true, Cache: false}); err != nil {
		t.Fatal(err)
	}
}

// TestLoaderSharesImports pins one type-check per imported package: one
// Loader used from eight goroutines at once hands every package the
// same *types.Package for a dependency they share.
func TestLoaderSharesImports(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	const shared = "repro/internal/sim"
	dirs := []string{"unicons", "multicons", "hybridcas", "universal", "qlocal", "renaming", "baseline", "core"}
	loader := analysis.NewLoader(root)
	got := make([]*types.Package, len(dirs))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgs, err := loader.LoadDir(filepath.Join(root, "internal", dir), "repro/internal/"+dir, false)
			if err != nil {
				t.Error(err)
				return
			}
			for _, imp := range pkgs[0].Types.Imports() {
				if imp.Path() == shared {
					got[i] = imp
				}
			}
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p == nil {
			t.Errorf("internal/%s: no import of %s", dirs[i], shared)
		} else if p != got[0] {
			t.Errorf("internal/%s imports a different %s than internal/%s", dirs[i], shared, dirs[0])
		}
	}
}
