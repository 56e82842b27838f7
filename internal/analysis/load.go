package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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
// returned package with path pkgPath+"_test". As go test builds it, the
// external package imports the primary package, in-package test files
// included (testVariant).
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
	var imp types.ImporterFrom = l.imp
	if len(primary) > 0 {
		pkg, err := l.check(dir, pkgPath, primary, tests, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		if slices.ContainsFunc(primary, func(f *ast.File) bool { return tests[f] }) {
			imp = newTestVariant(l.imp, pkg.Types)
		}
	}
	if len(external) > 0 {
		pkg, err := l.check(dir, pkgPath+"_test", external, tests, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func (l *Loader) check(dir, pkgPath string, files []*ast.File, tests map[*ast.File]bool, imp types.ImporterFrom) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
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
// with four differences:
//
//   - it reads declarations only: each file is parsed with the body of
//     every top-level function declaration blanked (blankFuncBodies),
//     and each import no declaration names is dropped before the check
//     (dropBodyImports), so a package's Imports lists only the imports
//     its declarations use and a body-only import is never checked;
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
// Reading declarations only changes no declaration's type: with
// IgnoreFuncBodies set, go/types never checks a body and skips its
// unused-import check (unusedImports, go/types/resolver.go), so neither
// a blanked body nor a dropped import is seen. An import dropped by
// mistake, one whose package name is neither its path's last element
// nor the element before a major-version suffix, fails the check loudly
// with "undefined"; neither the module nor the standard library has one.
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
	e.once.Do(func() { e.pkg, e.err = p.check(path, dir, p) })
	return e.pkg, e.err
}

// check parses the declarations of the Go files a build of dir selects
// and type-checks them as package path, resolving imports through imp.
func (p *srcImporter) check(path, dir string, imp types.ImporterFrom) (*types.Package, error) {
	bp, err := p.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		filename := filepath.Join(dir, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		blankFuncBodies(src)
		f, err := parser.ParseFile(p.fset, filename, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dropBodyImports(f)
		files = append(files, f)
	}
	conf := types.Config{IgnoreFuncBodies: true, Importer: imp, Sizes: p.sizes}
	pkg, err := conf.Check(path, p.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return pkg, nil
}

// testVariant resolves the imports of an external test package foo_test
// as go test builds it: foo is the primary package, in-package test
// files included, so foo_test sees what export_test.go declares; and
// each module import whose declarations reach foo is type-checked again
// against that primary package, so the two agree on foo's types. Every
// other import is the shared srcImporter's. One testVariant serves one
// type-check, which calls it from one goroutine.
type testVariant struct {
	base    *srcImporter
	primary *types.Package
	pkgs    map[string]*types.Package // re-checked imports, by path
	reach   map[*types.Package]bool   // memo for reaches
}

func newTestVariant(base *srcImporter, primary *types.Package) *testVariant {
	return &testVariant{base: base, primary: primary, pkgs: map[string]*types.Package{}, reach: map[*types.Package]bool{}}
}

func (v *testVariant) Import(path string) (*types.Package, error) {
	return v.ImportFrom(path, ".", 0)
}

func (v *testVariant) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == v.primary.Path() {
		return v.primary, nil
	}
	if pkg := v.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	pkg, err := v.base.ImportFrom(path, srcDir, mode)
	if err != nil || !v.reaches(pkg) {
		return pkg, err
	}
	rel, _ := moduleRel(v.base.modPath, path) // only module packages reach
	pkg, err = v.base.check(path, filepath.Join(v.base.root, filepath.FromSlash(rel)), v)
	if err != nil {
		return nil, err
	}
	v.pkgs[path] = pkg
	return pkg, nil
}

// reaches reports whether pkg, one of the shared importer's packages,
// is the package under test or keeps an import, transitively, that is.
// Only module packages can: the standard library imports none.
func (v *testVariant) reaches(pkg *types.Package) bool {
	if r, ok := v.reach[pkg]; ok {
		return r
	}
	r := false
	if _, ok := moduleRel(v.base.modPath, pkg.Path()); ok {
		r = pkg.Path() == v.primary.Path()
		for _, q := range pkg.Imports() {
			r = r || v.reaches(q)
		}
	}
	v.reach[pkg] = r
	return r
}

// blankFuncBodies overwrites with spaces every byte inside the body of
// each top-level function declaration in src, newlines excepted. Each
// body then parses as an empty block, and the file keeps its length, its
// line offsets and every byte outside the bodies, so every position the
// parser records outside them stays the same. Function literals, those
// in package-level initializers included, are left alone.
//
// It lexes just enough Go to find the bodies: comments and string and
// rune literals, which may hold braces; bracket nesting; and the
// semicolons the lexer inserts at line ends, which end declarations. A
// "func" that starts a declaration at depth 0 opens a signature; in it,
// the first "{" at depth 0 that does not follow "struct" or "interface"
// opens the body, and a semicolon at depth 0 before any such "{" ends a
// declaration without a body (one implemented in assembly).
func blankFuncBodies(src []byte) {
	var (
		depth     int    // open ( [ and { brackets
		declStart = true // a semicolon, or the file start, ends what came before
		canEnd    bool   // a newline here would insert a semicolon
		typeBrace bool   // the last token is struct or interface
		inSig     bool   // inside a top-level function signature
		body      = -1   // offset of the open body's "{"
		n         = len(src)
	)
	semicolon := func() {
		if depth == 0 {
			declStart, inSig = true, false
		}
		canEnd = false
	}
	for i := 0; i < n; {
		c := src[i]
		switch {
		case c == '\n':
			if canEnd {
				semicolon()
			}
			i++
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			continue
		case c == ';':
			semicolon()
			typeBrace = false
			i++
			continue
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
			continue
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := i + 2 + bytes.Index(src[i+2:], []byte("*/"))
			if end < i+2 {
				end = n
			}
			// A general comment holding a newline acts as one.
			if canEnd && bytes.IndexByte(src[i:end], '\n') >= 0 {
				semicolon()
			}
			i = end + 2
			continue
		}
		atDecl, afterType := declStart && depth == 0, typeBrace
		declStart, typeBrace, canEnd = false, false, true
		switch {
		case c == '"' || c == '\'':
			for i++; i < n && src[i] != c && src[i] != '\n'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
			i++
		case c == '`':
			i++
			for i < n && src[i] != '`' {
				i++
			}
			i++
		case isDigit(c) || c == '.' && i+1 < n && isDigit(src[i+1]):
			for i++; i < n && (isWordByte(src[i]) || src[i] == '.'); i++ {
			}
		case isWordByte(c):
			start := i
			for i++; i < n && isWordByte(src[i]); i++ {
			}
			if depth > 0 {
				break // only declarations and signatures matter
			}
			switch word := string(src[start:i]); word {
			case "func":
				inSig = inSig || atDecl
			case "struct", "interface":
				typeBrace = true
			case "break", "continue", "fallthrough", "return":
			default:
				canEnd = !token.Lookup(word).IsKeyword()
			}
		case c == '(' || c == '[' || c == '{':
			if c == '{' && inSig && depth == 0 && !afterType {
				body, inSig = i, false
			}
			depth++
			canEnd = false
			i++
		case c == ')' || c == ']' || c == '}':
			depth--
			if c == '}' && depth == 0 && body >= 0 {
				for j := body + 1; j < i; j++ {
					if src[j] != '\n' {
						src[j] = ' '
					}
				}
				body = -1
			}
			i++
		case (c == '+' || c == '-') && i+1 < n && src[i+1] == c:
			i += 2
		default:
			canEnd = false
			i++
		}
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isWordByte reports whether c may be part of an identifier, keyword or
// number: non-ASCII bytes only occur in identifiers outside literals and
// comments.
func isWordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || isDigit(c) || c >= utf8.RuneSelf
}

// dropBodyImports removes from f, once its function bodies are blanked,
// every import that no selector expression left in f names: no
// declaration's type can depend on it. Dot imports stay, since no
// selector names them; blank imports go, since no declaration can. An
// unnamed import binds its path's last element, or the element before
// a major-version suffix ("math/rand/v2" binds rand); it stays if
// either is named.
func dropBodyImports(f *ast.File) {
	used := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				used[id.Name] = true
			}
		}
		return true
	})
	unused := func(spec ast.Spec) bool {
		imp := spec.(*ast.ImportSpec)
		if imp.Name != nil {
			return imp.Name.Name != "." && !used[imp.Name.Name]
		}
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return false
		}
		elems := strings.Split(path, "/")
		last := elems[len(elems)-1]
		if v, ok := strings.CutPrefix(last, "v"); ok && len(elems) > 1 && v != "" && strings.Trim(v, "0123456789") == "" {
			return !used[last] && !used[elems[len(elems)-2]]
		}
		return !used[last]
	}
	// An import declaration left empty goes too: one written without
	// parentheses has no End once its spec is gone.
	f.Imports = f.Imports[:0]
	f.Decls = slices.DeleteFunc(f.Decls, func(decl ast.Decl) bool {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.IMPORT {
			return false
		}
		gen.Specs = slices.DeleteFunc(gen.Specs, unused)
		for _, spec := range gen.Specs {
			f.Imports = append(f.Imports, spec.(*ast.ImportSpec))
		}
		return len(gen.Specs) == 0
	})
}
