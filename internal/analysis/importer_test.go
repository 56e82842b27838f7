package analysis

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// TestImporterMatchesSourceImporter pins the importer against two
// references, over every package in the module's import closure as
// go/build lists it: non-test imports throughout, plus the test imports
// of module packages. (The importer's own Imports lists only the imports
// declarations use, so the closure is not walked through it.)
//
//   - The standard library's source importer, which type-checks with cgo
//     where the build has it enabled (net): every package must export the
//     same API through both, so type-checking without cgo changes no
//     exported object or method.
//   - A cgo-free importer that type-checks whole files: every
//     package-level object, exported or not, every method and every
//     constant value must be the same, so reading declarations only
//     changes nothing a declaration says.
func TestImporterMatchesSourceImporter(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the import closure three times, once through the go command; skipped in -short")
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
	closure := map[string]bool{}
	var walk func(path, srcDir string)
	walk = func(path, srcDir string) {
		if path == "C" {
			return
		}
		var (
			bp  *build.Package
			err error
		)
		if rel, ok := moduleRel(modPath, path); ok {
			bp, err = imp.ctxt.ImportDir(filepath.Join(root, filepath.FromSlash(rel)), 0)
		} else if bp, err = imp.ctxt.Import(path, srcDir, 0); err == nil {
			path = bp.ImportPath // vendored standard-library imports
		}
		if err != nil {
			t.Fatalf("go/build: %v", err)
		}
		if closure[path] {
			return
		}
		closure[path] = true
		for _, q := range bp.Imports {
			walk(q, bp.Dir)
		}
	}
	for _, rel := range dirs {
		dir := filepath.Join(root, rel)
		bp, err := imp.ctxt.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("go/build: %v", err)
		}
		for _, q := range slices.Concat(bp.Imports, bp.TestImports, bp.XTestImports) {
			walk(q, dir)
		}
	}
	paths := make([]string, 0, len(closure))
	for path := range closure {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, want := range []string{"fmt", "net", "net/http", "os", "testing", modPath + "/internal/sim", modPath + "/internal/artifact"} {
		if !closure[want] {
			t.Errorf("import closure lacks %s", want)
		}
	}

	ref := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	whole := &wholeFileImporter{fset: token.NewFileSet(), base: imp, pkgs: map[string]*types.Package{}}
	for _, path := range paths {
		got, err := imp.ImportFrom(path, root, 0)
		if err != nil {
			t.Errorf("importer: %v", err)
			continue
		}
		want, err := ref.ImportFrom(path, root, 0)
		if err != nil {
			t.Errorf("reference importer: %v", err)
			continue
		}
		if g, w := packageAPI(got, true), packageAPI(want, true); !slices.Equal(g, w) {
			t.Errorf("%s: exported API differs from the source importer's:\ngot  %q\nwant %q", path, g, w)
		}
		want, err = whole.ImportFrom(path, root, 0)
		if err != nil {
			t.Errorf("whole-file importer: %v", err)
			continue
		}
		if g, w := packageAPI(got, false), packageAPI(want, false); !slices.Equal(g, w) {
			t.Errorf("%s: declarations differ from the whole-file importer's:\ngot  %q\nwant %q", path, g, w)
		}
	}
	t.Logf("%d packages match both references", len(paths))
}

// wholeFileImporter is the reference for reading declarations only: it
// resolves and selects files as base does, cgo-free, but parses them
// whole and keeps every import.
type wholeFileImporter struct {
	fset *token.FileSet
	base *srcImporter
	pkgs map[string]*types.Package
}

func (w *wholeFileImporter) Import(path string) (*types.Package, error) {
	return w.ImportFrom(path, ".", 0)
}

func (w *wholeFileImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir := ""
	if rel, ok := moduleRel(w.base.modPath, path); ok {
		dir = filepath.Join(w.base.root, filepath.FromSlash(rel))
	} else {
		bp, err := w.base.ctxt.Import(path, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		path, dir = bp.ImportPath, bp.Dir
	}
	if pkg := w.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	bp, err := w.base.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(w.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{IgnoreFuncBodies: true, Importer: w, Sizes: w.base.sizes}
	pkg, err := conf.Check(path, w.fset, files, nil)
	if err != nil {
		return nil, err
	}
	w.pkgs[path] = pkg
	return pkg, nil
}

// packageAPI renders pkg's package-level objects and the methods of its
// named types, sorted, each constant with its exact value; exported
// objects and methods only if exportedOnly.
func packageAPI(pkg *types.Package, exportedOnly bool) []string {
	qual := types.RelativeTo(pkg)
	api := []string{"package " + pkg.Name()}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if exportedOnly && !obj.Exported() {
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
				if m := named.Method(i); m.Exported() || !exportedOnly {
					api = append(api, types.ObjectString(m, qual))
				}
			}
		}
	}
	sort.Strings(api)
	return api
}

// blankByParser is blankFuncBodies' reference: it parses src whole and
// blanks, newlines excepted, the inside of every top-level function
// declaration's body.
func blankByParser(t *testing.T, src []byte) []byte {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	out := bytes.Clone(src)
	file := fset.File(f.Pos())
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			for i := file.Offset(fd.Body.Lbrace) + 1; i < file.Offset(fd.Body.Rbrace); i++ {
				if out[i] != '\n' {
					out[i] = ' '
				}
			}
		}
	}
	return out
}

func newlineOffsets(src []byte) []int {
	var offs []int
	for i, c := range src {
		if c == '\n' {
			offs = append(offs, i)
		}
	}
	return offs
}

// TestBlankFuncBodies pins body blanking case by case against the
// parser-based reference: the same bytes, so the same length and
// newline offsets, each body left an empty block, and what must stay
// (kept) still there.
func TestBlankFuncBodies(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		gone []string // text inside bodies
		kept []string // text outside them, which must survive
	}{
		{
			name: "struct and interface results",
			src: "package p\n\nfunc s() struct{ x int } { return struct{ x int }{1} }\n\n" +
				"func i() interface{ M() } { return nil }\n\nfunc m() map[string]struct{} { return map[string]struct{}{\"a\": {}} }\n",
			gone: []string{"{1}", "return nil", `"a"`},
			kept: []string{"struct{ x int } {", "interface{ M() } {", "map[string]struct{} {"},
		},
		{
			name: "constraint",
			src:  "package p\n\nfunc sum[T interface{ ~int | ~int64 }](xs ...T) (s T) {\n\tfor _, x := range xs {\n\t\ts += x\n\t}\n\treturn\n}\n",
			gone: []string{"range xs", "s += x"},
			kept: []string{"interface{ ~int | ~int64 }"},
		},
		{
			name: "func-typed result",
			src:  "package p\n\nfunc adder(n int) func(int) int {\n\treturn func(x int) int { return x + n }\n}\n\nfunc g() (func() struct{}, error) { return nil, nil }\n",
			gone: []string{"x + n", "nil, nil"},
			kept: []string{"func(int) int {", "(func() struct{}, error) {"},
		},
		{
			name: "bodyless declarations",
			src:  "package p\n\nfunc asm(x int) int\n\nfunc asm2() (a, b int)\nfunc after() { panic(1) }\n\nfunc asm3() struct{}\n\nvar v = []int{1}\n",
			gone: []string{"panic(1)"},
			kept: []string{"func asm(x int) int\n", "func asm2() (a, b int)\n", "func asm3() struct{}\n", "var v = []int{1}"},
		},
		{
			name: "generic receiver",
			src:  "package p\n\ntype L[T any] struct{ next *L[T] }\n\nfunc (l *L[T]) Next() *L[T] { return l.next }\n\nfunc (L[_]) Zero() {}\n",
			gone: []string{"l.next"},
			kept: []string{"struct{ next *L[T] }", "func (L[_]) Zero() {}"},
		},
		{
			name: "multi-line parameters",
			src:  "package p\n\nfunc f(\n\ta int,\n\tb struct {\n\t\tx int\n\t},\n) (\n\tint,\n\terror,\n) {\n\treturn a + b.x, nil\n}\n",
			gone: []string{"a + b.x"},
			kept: []string{"b struct {\n\t\tx int\n\t},"},
		},
		{
			name: "braces in literals and comments",
			src: "package p\n\nfunc f() string {\n\ts := \"}{\\\"}\" + `}\n{` + string('}') + string('\\'')\n\t// }\n\t/* } { */\n\treturn s\n}\n\n" +
				"// func g() { } in a comment\n/* func h() {\n} */\nfunc k() rune { return '{' }\n",
			gone: []string{"return s", "'{'"},
			kept: []string{"// func g() { } in a comment", "/* func h() {\n} */"},
		},
		{
			name: "func literal in a package-level var",
			src:  "package p\n\nvar f = func() int { return 1 }\n\nvar (\n\tg = func() {\n\t\tprintln()\n\t}\n)\n\nvar h =\n\tfunc() { println() }\n\nfunc k() { println() }\n",
			gone: []string{"func k() { println() }"},
			kept: []string{"func() int { return 1 }", "g = func() {\n\t\tprintln()\n\t}", "func() { println() }"},
		},
		{
			name: "array literal",
			src:  "package p\n\nvar a = [...]int{1, 2, 3}\n\nvar s = []struct{ x int }{{1}, {2}}\n\nfunc f() [3]int { return [...]int{4, 5, 6} }\n",
			gone: []string{"{4, 5, 6}"},
			kept: []string{"[...]int{1, 2, 3}", "[]struct{ x int }{{1}, {2}}"},
		},
		{
			name: "semicolons and statement ends",
			src:  "package p; import \"fmt\"; func f() { fmt.Println(1) }; func g() int { x := 1; x++; return x }\nvar x = 2 +\n\t3\nfunc h() {}\n",
			gone: []string{"fmt.Println(1)", "x++"},
			kept: []string{"import \"fmt\";", "var x = 2 +\n\t3"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := []byte(tc.src)
			got := bytes.Clone(src)
			blankFuncBodies(got)
			if want := blankByParser(t, src); !bytes.Equal(got, want) {
				t.Errorf("blanked:\n%s\nwant:\n%s", got, want)
			}
			if len(got) != len(src) || !slices.Equal(newlineOffsets(got), newlineOffsets(src)) {
				t.Errorf("length or newline offsets changed")
			}
			for _, s := range tc.gone {
				if bytes.Contains(got, []byte(s)) {
					t.Errorf("%q survives blanking", s)
				}
			}
			for _, s := range tc.kept {
				if !bytes.Contains(got, []byte(s)) {
					t.Errorf("%q lost", s)
				}
			}
			f, err := parser.ParseFile(token.NewFileSet(), "x.go", got, 0)
			if err != nil {
				t.Fatalf("blanked file does not parse: %v", err)
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && len(fd.Body.List) != 0 {
					t.Errorf("%s: body not empty", fd.Name.Name)
				}
			}
		})
	}
}

// TestDropBodyImports pins which imports a blanked file keeps: those a
// declaration names, by their bound name, and dot imports.
func TestDropBodyImports(t *testing.T) {
	imp := newSrcImporter(token.NewFileSet(), t.TempDir())
	for _, tc := range []struct {
		name string
		src  string
		want []string // kept import paths, in order
	}{
		{"used only in bodies", "import (\n\t\"fmt\"\n\t\"os\"\n)\n\nfunc f() { fmt.Println(os.Args) }\n", nil},
		{"single unparenthesized", "import \"fmt\"\n\nfunc f() { fmt.Println() }\n", nil},
		{"signature", "import \"io\"\n\nfunc f(r io.Reader) {}\n", []string{"io"}},
		{"field", "import \"sync\"\n\ntype T struct{ mu sync.Mutex }\n", []string{"sync"}},
		{"constraint", "import \"cmp\"\n\nfunc max[T cmp.Ordered](a, b T) T { return a }\n", []string{"cmp"}},
		{"var initializer", "import \"errors\"\n\nvar errX = errors.New(\"x\")\n", []string{"errors"}},
		{"func literal in a var", "import \"fmt\"\n\nvar f = func() { fmt.Println() }\n", []string{"fmt"}},
		{"blank and dot", "import (\n\t_ \"embed\"\n\t. \"strings\"\n)\n", []string{"strings"}},
		{"renamed and used", "import str \"strings\"\n\nvar b str.Builder\n", []string{"strings"}},
		{"renamed and unused", "import str \"strings\"\n\nfunc f() { _ = str.ToUpper }\n", nil},
		{"major version", "import \"math/rand/v2\"\n\nvar r *rand.Rand\n", []string{"math/rand/v2"}},
		{"major version unused", "import \"math/rand/v2\"\n\nfunc f() int { return rand.N(2) }\n", nil},
		{"mixed", "import (\n\t\"fmt\"\n\t\"io\"\n\t\"os\"\n)\n\nimport \"time\"\n\nfunc f(w io.Writer) time.Duration { fmt.Fprint(w, os.Args); return 0 }\n", []string{"io", "time"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := []byte("package p\n\n" + tc.src)
			blankFuncBodies(src)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			dropBodyImports(f)
			var got, inDecls []string
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				got = append(got, path)
			}
			for _, decl := range f.Decls {
				if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.IMPORT {
					for _, spec := range gen.Specs {
						path, _ := strconv.Unquote(spec.(*ast.ImportSpec).Path.Value)
						inDecls = append(inDecls, path)
					}
				}
			}
			if !slices.Equal(got, tc.want) || !slices.Equal(inDecls, tc.want) {
				t.Errorf("kept imports %q, declared %q, want %q", got, inDecls, tc.want)
			}
			// What remains must type-check with bodies ignored, as the
			// importer checks it.
			conf := types.Config{IgnoreFuncBodies: true, Importer: imp}
			if _, err := conf.Check("p", fset, []*ast.File{f}, nil); err != nil {
				t.Errorf("type-check: %v", err)
			}
		})
	}
}
