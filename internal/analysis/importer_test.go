package analysis

import (
	"errors"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"testing"
)

// TestImporterMatchesSourceImporter pins the importer against the
// standard library's source importer, which stays the reference: every
// package in the module's non-test import closure, module and standard
// library alike, must export the same API through both. The reference
// type-checks with cgo where the build has it enabled (net), so this
// also pins that type-checking without cgo changes no exported
// object or method.
func TestImporterMatchesSourceImporter(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the import closure twice, once through the go command; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	imp := newSrcImporter(token.NewFileSet(), root)
	closure := map[string]*types.Package{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if closure[p.Path()] != nil {
			return
		}
		closure[p.Path()] = p
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, rel := range dirs {
		pkg, err := imp.ImportFrom(pkgPathFor(modPath, rel), root, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			continue // test files only
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range pkg.Imports() {
			walk(q)
		}
	}
	paths := make([]string, 0, len(closure))
	for path := range closure {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, want := range []string{"fmt", "net", "net/http", "os", modPath + "/internal/sim"} {
		if closure[want] == nil {
			t.Errorf("import closure lacks %s", want)
		}
	}

	ref := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	for _, path := range paths {
		want, err := ref.ImportFrom(path, root, 0)
		if err != nil {
			t.Errorf("reference importer: %v", err)
			continue
		}
		got, wantAPI := exportedAPI(closure[path]), exportedAPI(want)
		if !slices.Equal(got, wantAPI) {
			t.Errorf("%s: exported API differs from the reference:\ngot  %q\nwant %q", path, got, wantAPI)
		}
	}
	t.Logf("%d packages match the reference importer", len(paths))
}

// exportedAPI renders every exported package-level object of pkg, and
// every exported method of its named types, sorted.
func exportedAPI(pkg *types.Package) []string {
	qual := types.RelativeTo(pkg)
	var api []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		s := types.ObjectString(obj, qual)
		if c, ok := obj.(*types.Const); ok {
			s += " = " + c.Val().ExactString()
		}
		api = append(api, s)
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		if named, ok := obj.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					api = append(api, types.ObjectString(m, qual))
				}
			}
		}
	}
	sort.Strings(api)
	return api
}
