package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package plus its suppression
// markers. A directory yields one primary Package (library files plus
// in-package _test.go files) and, when present, a second Package for
// the external foo_test package (Path suffixed "_test").
type Package struct {
	// Dir is the package directory; Path its import path.
	Dir  string
	Path string

	Fset      *token.FileSet
	Files     []*ast.File
	TestFiles map[*ast.File]bool
	Types     *types.Package
	Info      *types.Info
	Markers   []*Marker

	// facts accumulates what this package's analyzers export; depFacts
	// holds the already-computed facts of dependency packages (see
	// facts.go).
	facts    *PackageFacts
	depFacts map[string]*PackageFacts
}

// A Loader parses and type-checks packages of one module from source.
// Construct it with NewLoader. One Loader shares a FileSet and an
// importer across every LoadDir call, and LoadDir may be called from
// several goroutines at once: the importer type-checks each imported
// package once, whichever call imports it first, and every other call
// shares that *types.Package.
type Loader struct {
	fset *token.FileSet
	imp  *srcImporter
}

// NewLoader returns a Loader for the module rooted at root. Imports of
// that module's packages resolve to directories under root, whatever
// the process's working directory; other imports resolve in the
// standard library. Resolution and type-checking run in process: no go
// command and no C compiler.
func NewLoader(root string) *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: newSrcImporter(fset, root)}
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadDir parses and type-checks the package in dir under import path
// pkgPath. includeTests folds _test.go files in: in-package test files
// join the primary package, external (foo_test) files form a second
// returned package with path pkgPath+"_test".
func (l *Loader) LoadDir(dir, pkgPath string, includeTests bool) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	// Parse, splitting files by declared package name: the directory's
	// base package (with any in-package tests) vs. the external _test
	// package.
	var primary, external []*ast.File
	tests := map[*ast.File]bool{}
	baseName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkgName := f.Name.Name
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest {
			tests[f] = true
		}
		switch {
		case strings.HasSuffix(pkgName, "_test"):
			external = append(external, f)
		default:
			if baseName == "" {
				baseName = pkgName
			} else if pkgName != baseName {
				return nil, fmt.Errorf("%s: mixed package names %s and %s", dir, baseName, pkgName)
			}
			primary = append(primary, f)
		}
	}

	var out []*Package
	if len(primary) > 0 {
		pkg, err := l.check(dir, pkgPath, primary, tests)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	if len(external) > 0 {
		pkg, err := l.check(dir, pkgPath+"_test", external, tests)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func (l *Loader) check(dir, pkgPath string, files []*ast.File, tests map[*ast.File]bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	return &Package{
		Dir:       dir,
		Path:      pkgPath,
		Fset:      l.fset,
		Files:     files,
		TestFiles: tests,
		Types:     tpkg,
		Info:      info,
		Markers:   collectMarkers(l.fset, files),
	}, nil
}

// PackageDirs walks root (a module root) and returns every directory
// holding .go files, as module-root-relative paths in lexical order.
// testdata, hidden, and vendor directories are skipped.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(fi.Name(), ".go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || d != dirs[i-1] {
			out = append(out, d)
		}
	}
	return out, nil
}

// ModulePath reads the module path from root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// srcImporter type-checks imported packages from source, ignoring
// function bodies, as the standard library's source importer does,
// with three differences:
//
//   - each package is type-checked once per importer, behind its own
//     once, so concurrent checkers share one result;
//   - module-internal paths resolve under root (go/build's ImportDir),
//     and other paths through go/build's Import, which finds standard
//     library packages in GOROOT without asking the go command;
//   - packages are type-checked as a CGO_ENABLED=0 build sees them, so
//     cgo never runs: a package with cgo files, such as net, checks its
//     pure-Go fallback files instead, which export the same API
//     (TestImporterMatchesSourceImporter).
//
// The import graph it walks is acyclic (the driver rejects module
// import cycles, and the standard library has none), so the nested
// onces of one import chain cannot wait on each other.
type srcImporter struct {
	fset    *token.FileSet
	ctxt    build.Context
	sizes   types.Sizes
	root    string
	modPath string // "" when root has no readable go.mod: nothing is in the module

	mu   sync.Mutex
	pkgs map[string]*importedPkg // by resolved import path
}

type importedPkg struct {
	once sync.Once
	pkg  *types.Package
	err  error
}

func newSrcImporter(fset *token.FileSet, root string) *srcImporter {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	modPath, _ := ModulePath(root)
	return &srcImporter{
		fset:    fset,
		ctxt:    ctxt,
		sizes:   types.SizesFor(ctxt.Compiler, ctxt.GOARCH),
		root:    root,
		modPath: modPath,
		pkgs:    map[string]*importedPkg{},
	}
}

func (p *srcImporter) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, ".", 0)
}

func (p *srcImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var dir string
	if rel, ok := moduleRel(p.modPath, path); ok {
		dir = filepath.Join(p.root, filepath.FromSlash(rel))
	} else {
		bp, err := p.ctxt.Import(path, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		path, dir = bp.ImportPath, bp.Dir
	}
	p.mu.Lock()
	e := p.pkgs[path]
	if e == nil {
		e = &importedPkg{}
		p.pkgs[path] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.pkg, e.err = p.check(path, dir) })
	return e.pkg, e.err
}

// check parses the Go files a build of dir selects and type-checks
// them as package path.
func (p *srcImporter) check(path, dir string) (*types.Package, error) {
	bp, err := p.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{IgnoreFuncBodies: true, Importer: p, Sizes: p.sizes}
	pkg, err := conf.Check(path, p.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return pkg, nil
}
