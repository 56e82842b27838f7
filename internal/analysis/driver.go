package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// suiteVersion keys the incremental cache to the analyzer suite: bump
// it whenever an analyzer, the marker grammar, or the fact model
// changes meaning, so stale entries can never mask new findings.
const suiteVersion = 1

// DriverOptions configures one RunDriver invocation.
type DriverOptions struct {
	// Root is the module root (see FindModuleRoot).
	Root string
	// Patterns selects packages: "./..." (default), "./dir", or
	// "./dir/...". Dependencies of selected packages are analyzed too
	// (their facts feed the interprocedural passes) but only selected
	// packages' diagnostics are reported.
	Patterns []string
	// Tests includes _test.go files.
	Tests bool
	// Cache enables the content-hash-keyed incremental cache.
	Cache bool
	// CacheDir overrides the cache location (default
	// <Root>/.reprolint-cache).
	CacheDir string
	// Parallelism caps concurrent package analysis (default GOMAXPROCS,
	// min 1). The workers share one Loader, so each imported package is
	// type-checked once per run, by whichever worker needs it first,
	// while the analyzed packages themselves check in parallel.
	Parallelism int
}

// DriverResult is what RunDriver produces.
type DriverResult struct {
	// Diags are the findings for selected packages, in file/line order.
	Diags []Diagnostic
	// Bounds is the derived per-operation statement-bound report over
	// every analyzed algorithm package.
	Bounds *BoundsReport
	// Packages counts selected (reported-on) package directories;
	// Analyzed counts directories analyzed including dependencies.
	Packages int
	Analyzed int
	// CacheHits/CacheMisses count per-directory cache outcomes (zero
	// when the cache is off).
	CacheHits   int
	CacheMisses int
}

// BoundsReport is the machine-readable bounds artifact: the statically
// derived worst-case statement count of every exported operation in
// the algorithm packages.
type BoundsReport struct {
	Version int       `json:"version"`
	Ops     []OpBound `json:"ops"`
}

// OpBound is one operation's derived bound.
type OpBound struct {
	Package string `json:"package"`
	Func    string `json:"func"`
	// Bound renders Expr; Expr is the evaluable tree.
	Bound     string `json:"bound"`
	Expr      *Bound `json:"expr,omitempty"`
	Unbounded bool   `json:"unbounded,omitempty"`
	// Incomplete lists why the bound is a lower-bound certificate only
	// (interface dispatch, function values); empty means total.
	Incomplete []string `json:"incomplete,omitempty"`
	File       string   `json:"file,omitempty"`
	Line       int      `json:"line,omitempty"`
}

// ValidPattern checks a package pattern: ".", "./...", "./dir", or
// "./dir/...", relative to the module root, no ".." segments.
func ValidPattern(p string) error {
	if p == "." || p == "./..." {
		return nil
	}
	rest, ok := strings.CutPrefix(p, "./")
	if !ok || rest == "" {
		return fmt.Errorf("bad package pattern %q: want ./dir, ./dir/..., or ./...", p)
	}
	rest = strings.TrimSuffix(rest, "/...")
	for _, seg := range strings.Split(rest, "/") {
		if seg == "" || seg == ".." || seg == "." {
			return fmt.Errorf("bad package pattern %q: empty or dot path segment", p)
		}
	}
	return nil
}

// matchesPatterns reports whether the root-relative package dir is
// selected by patterns (each already validated).
func matchesPatterns(patterns []string, relDir string) bool {
	for _, p := range patterns {
		if p == "./..." {
			return true
		}
		if p == "." {
			if relDir == "." {
				return true
			}
			continue
		}
		rest := strings.TrimPrefix(p, "./")
		if dir, ok := strings.CutSuffix(rest, "/..."); ok {
			if relDir == dir || strings.HasPrefix(relDir, dir+"/") {
				return true
			}
			continue
		}
		if relDir == rest {
			return true
		}
	}
	return false
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// dirInfo is one package directory's scan result.
type dirInfo struct {
	rel     string
	pkgPath string
	// files are the included .go file names (per Tests), sorted, with
	// content hashes.
	files  []string
	hashes []string
	// deps are root-relative dirs of module-internal imports;
	// testDeps those of the test files' imports.
	deps     []string
	testDeps []string
}

// dirState tracks one directory through the worker pool.
type dirState struct {
	info    *dirInfo
	key     string // cache key, computed once deps are done
	diags   []Diagnostic
	facts   *PackageFacts
	hit     bool
	pending int // unfinished deps
}

// RunDriver analyzes the selected packages (plus their module-internal
// dependencies, whose facts the interprocedural analyzers consume) in
// package-graph-parallel topological order, consulting the incremental
// cache, and returns sorted diagnostics plus the derived bounds report.
// Module imports resolve under opts.Root, whatever the process's working
// directory.
func RunDriver(opts DriverOptions) (*DriverResult, error) {
	root, err := filepath.Abs(opts.Root)
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if err := ValidPattern(p); err != nil {
			return nil, err
		}
	}
	cacheDir := opts.CacheDir
	if cacheDir == "" {
		cacheDir = filepath.Join(root, ".reprolint-cache")
	}

	dirs, err := PackageDirs(root)
	if err != nil {
		return nil, err
	}
	infos := map[string]*dirInfo{}
	for _, rel := range dirs {
		info, err := scanDir(root, modPath, rel, opts.Tests)
		if err != nil {
			return nil, err
		}
		if info != nil {
			infos[rel] = info
		}
	}

	// Selection + transitive dependency closure.
	selected := map[string]bool{}
	for rel := range infos {
		if matchesPatterns(patterns, rel) {
			selected[rel] = true
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("patterns %v match no packages under %s", patterns, root)
	}
	needed := map[string]bool{}
	for _, rel := range depClosure(infos, slices.Collect(maps.Keys(selected))) {
		needed[rel] = true
	}

	// Topological worker pool over the needed subgraph.
	states := map[string]*dirState{}
	dependents := map[string][]string{}
	var ready []string
	for rel := range needed {
		info := infos[rel]
		st := &dirState{info: info}
		for _, d := range info.deps {
			if needed[d] && infos[d] != nil {
				st.pending++
				dependents[d] = append(dependents[d], rel)
			}
		}
		states[rel] = st
		if st.pending == 0 {
			ready = append(ready, rel)
		}
	}
	sort.Strings(ready)

	// Sanity: the non-test import graph must be acyclic, or the pool
	// below would wait forever. Kahn's algorithm over a scratch copy.
	{
		pend := map[string]int{}
		for rel, st := range states {
			pend[rel] = st.pending
		}
		queue := append([]string(nil), ready...)
		done := 0
		for len(queue) > 0 {
			rel := queue[0]
			queue = queue[1:]
			done++
			for _, dep := range dependents[rel] {
				if pend[dep]--; pend[dep] == 0 {
					queue = append(queue, dep)
				}
			}
		}
		if done != len(needed) {
			var stuck []string
			for rel, n := range pend {
				if n > 0 {
					stuck = append(stuck, rel)
				}
			}
			sort.Strings(stuck)
			return nil, fmt.Errorf("import cycle among package dirs %v", stuck)
		}
	}

	parallelism := opts.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(needed) {
		parallelism = len(needed)
	}
	if parallelism < 1 {
		parallelism = 1
	}

	var (
		mu        sync.Mutex
		cond      = sync.Cond{L: &mu}
		remaining = len(needed)
		firstErr  error
		hits      int
		misses    int
	)
	loader := NewLoader(root)
	worker := func() {
		for {
			mu.Lock()
			for len(ready) == 0 && remaining > 0 && firstErr == nil {
				cond.Wait()
			}
			if remaining == 0 || firstErr != nil {
				mu.Unlock()
				return
			}
			rel := ready[0]
			ready = ready[1:]
			st := states[rel]
			// Snapshot dep facts and compute the cache key under the
			// lock (deps are complete by topo order).
			deps := depClosure(infos, st.info.deps)
			depFacts := map[string]*PackageFacts{}
			depKeys := make([]string, 0, len(deps))
			for _, d := range deps {
				ds := states[d]
				if ds.facts != nil {
					depFacts[ds.info.pkgPath] = ds.facts
				}
				depKeys = append(depKeys, ds.key)
			}
			st.key = cacheKey(modPath, opts.Tests, st.info, depKeys, testDepFiles(infos, st.info))
			mu.Unlock()

			var (
				diags []Diagnostic
				facts *PackageFacts
				hit   bool
				err   error
			)
			if opts.Cache {
				diags, facts, hit = readCacheEntry(cacheDir, st.key, root)
			}
			if !hit {
				diags, facts, err = analyzeDir(loader, root, st.info, opts.Tests, depFacts)
				if err == nil && opts.Cache {
					writeCacheEntry(cacheDir, st.key, root, st.info, diags, facts)
				}
			}

			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				st.diags, st.facts, st.hit = diags, facts, hit
				if hit {
					hits++
				} else {
					misses++
				}
			}
			remaining--
			for _, dep := range dependents[rel] {
				ds := states[dep]
				ds.pending--
				if ds.pending == 0 {
					ready = append(ready, dep)
				}
			}
			sort.Strings(ready)
			cond.Broadcast()
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Assemble: diagnostics from selected packages only, bounds from
	// every analyzed algorithm package.
	res := &DriverResult{Packages: len(selected), Analyzed: len(needed), CacheHits: hits, CacheMisses: misses}
	var orderedNeeded []string
	for rel := range needed {
		orderedNeeded = append(orderedNeeded, rel)
	}
	sort.Strings(orderedNeeded)
	factsByPath := map[string]*PackageFacts{}
	for _, rel := range orderedNeeded {
		st := states[rel]
		if selected[rel] {
			res.Diags = append(res.Diags, st.diags...)
		}
		if st.facts != nil {
			factsByPath[st.info.pkgPath] = st.facts
		}
	}
	SortDiagnostics(res.Diags)
	res.Bounds = assembleBounds(root, factsByPath)
	return res, nil
}

// SortDiagnostics orders diags by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// scanDir reads a package directory's .go files (per tests), hashing
// contents and collecting module-internal imports. Returns nil when no
// files survive the filter.
func scanDir(root, modPath, rel string, tests bool) (*dirInfo, error) {
	abs := filepath.Join(root, rel)
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	info := &dirInfo{rel: rel, pkgPath: pkgPathFor(modPath, rel)}
	fset := token.NewFileSet()
	depSet, testDepSet := map[string]bool{}, map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(abs, name))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		info.files = append(info.files, name)
		info.hashes = append(info.hashes, hex.EncodeToString(sum[:]))
		f, err := parser.ParseFile(fset, name, data, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(rel, name), err)
		}
		// Dependency edges come from non-test files only: that is the
		// compile graph, which Go keeps acyclic, and it is exactly the
		// graph facts flow along (the interprocedural analyzers skip
		// test files). Test imports may cycle — package foo's external
		// test legally imports packages that import foo — so using them
		// for ordering would wedge the topological pool. They count
		// toward the cache key instead (testDepFiles).
		set := depSet
		if strings.HasSuffix(name, "_test.go") {
			set = testDepSet
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if depRel, ok := moduleRel(modPath, path); ok && depRel != rel {
				set[depRel] = true
			}
		}
	}
	if len(info.files) == 0 {
		return nil, nil
	}
	info.deps = slices.Sorted(maps.Keys(depSet))
	info.testDeps = slices.Sorted(maps.Keys(testDepSet))
	return info, nil
}

func pkgPathFor(modPath, rel string) string {
	if rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// moduleRel is pkgPathFor's inverse: the module-root-relative,
// slash-separated directory of import path, or false when path is not
// in module modPath.
func moduleRel(modPath, path string) (string, bool) {
	switch {
	case path == modPath:
		return ".", true
	case strings.HasPrefix(path, modPath+"/"):
		return path[len(modPath)+1:], true
	}
	return "", false
}

// analyzeDir loads, type-checks, and runs every applicable analyzer
// plus marker validation over one directory's packages.
func analyzeDir(loader *Loader, root string, info *dirInfo, tests bool, depFacts map[string]*PackageFacts) ([]Diagnostic, *PackageFacts, error) {
	pkgs, err := loader.LoadDir(filepath.Join(root, info.rel), info.pkgPath, tests)
	if err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	var facts *PackageFacts
	for _, pkg := range pkgs {
		pkg.SetDepFacts(depFacts)
		for _, a := range Analyzers() {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			ds, err := pkg.Run(a)
			if err != nil {
				return nil, nil, err
			}
			diags = append(diags, ds...)
		}
		diags = append(diags, MarkerProblems(pkg)...)
		if pkg.Path == info.pkgPath {
			facts = pkg.Facts()
		}
	}
	SortDiagnostics(diags)
	return diags, facts, nil
}

// cacheKey fingerprints everything a directory's result depends on:
// suite version, module, tests flag, the directory's file contents, the
// cache keys of its dependency closure (so a dep edit invalidates
// dependents transitively), and the files its test packages import
// beyond those (testDepFiles).
func cacheKey(modPath string, tests bool, info *dirInfo, depKeys, testFiles []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\x00%s\x00%s\x00tests=%v\x00", suiteVersion, modPath, info.rel, tests)
	for i, name := range info.files {
		fmt.Fprintf(h, "%s\x00%s\x00", name, info.hashes[i])
	}
	sorted := append([]string(nil), depKeys...)
	sort.Strings(sorted)
	for _, k := range sorted {
		fmt.Fprintf(h, "dep\x00%s\x00", k)
	}
	for _, f := range testFiles {
		fmt.Fprintf(h, "testdep\x00%s\x00", f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// depClosure returns, sorted, the dirs in roots and in their non-test
// dependency closure, leaving out any dir without package files.
func depClosure(infos map[string]*dirInfo, roots []string) []string {
	seen := map[string]bool{}
	var walk func(dirs []string)
	walk = func(dirs []string) {
		for _, d := range dirs {
			if infos[d] != nil && !seen[d] {
				seen[d] = true
				walk(infos[d].deps)
			}
		}
	}
	walk(roots)
	return slices.Sorted(maps.Keys(seen))
}

// testDepFiles lists the non-test files (as dir, name and content hash)
// of every dir that info's test files import and of those dirs'
// non-test dependency closure: what info's test packages are
// type-checked against beyond info's own files and dependencies. File
// hashes stand in for those dirs' cache keys because test imports may
// cycle (the tests of internal/sched import internal/artifact, which
// imports sched), so a key may not exist yet.
func testDepFiles(infos map[string]*dirInfo, info *dirInfo) []string {
	var files []string
	for _, d := range depClosure(infos, info.testDeps) {
		for i, name := range infos[d].files {
			if !strings.HasSuffix(name, "_test.go") {
				files = append(files, d+"\x00"+name+"\x00"+infos[d].hashes[i])
			}
		}
	}
	return files
}

// cacheEntry is the on-disk cache record. Positions are stored
// root-relative so the cache survives a checkout move.
type cacheEntry struct {
	Version int           `json:"version"`
	Dir     string        `json:"dir"`
	Diags   []cachedDiag  `json:"diags,omitempty"`
	Facts   *PackageFacts `json:"facts,omitempty"`
}

type cachedDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func readCacheEntry(cacheDir, key, root string) ([]Diagnostic, *PackageFacts, bool) {
	data, err := os.ReadFile(filepath.Join(cacheDir, key+".json"))
	if err != nil {
		return nil, nil, false
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil || e.Version != suiteVersion {
		return nil, nil, false
	}
	diags := make([]Diagnostic, 0, len(e.Diags))
	for _, d := range e.Diags {
		diags = append(diags, Diagnostic{
			Pos:      token.Position{Filename: filepath.Join(root, filepath.FromSlash(d.File)), Line: d.Line, Column: d.Col},
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	if e.Facts != nil {
		for _, ff := range e.Facts.Funcs {
			if ff.File != "" {
				ff.File = filepath.Join(root, filepath.FromSlash(ff.File))
			}
		}
	}
	return diags, e.Facts, true
}

func writeCacheEntry(cacheDir, key, root string, info *dirInfo, diags []Diagnostic, facts *PackageFacts) {
	// Cache writes are best-effort: a read-only checkout still lints.
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return
	}
	e := cacheEntry{Version: suiteVersion, Dir: info.rel}
	for _, d := range diags {
		e.Diags = append(e.Diags, cachedDiag{
			File:     relToRoot(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	if facts != nil {
		// Deep-copy so relativizing File doesn't mutate the live facts
		// dependents are about to read.
		cp := &PackageFacts{Path: facts.Path, Funcs: map[string]*FuncFact{}}
		for name, ff := range facts.Funcs {
			dup := *ff
			dup.File = relToRoot(root, ff.File)
			cp.Funcs[name] = &dup
		}
		e.Facts = cp
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp := filepath.Join(cacheDir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(cacheDir, key+".json"))
}

func relToRoot(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// assembleBounds builds the bounds report from the analyzed algorithm
// packages' facts.
func assembleBounds(root string, factsByPath map[string]*PackageFacts) *BoundsReport {
	report := &BoundsReport{Version: 1}
	var paths []string
	for path := range factsByPath {
		if pathIn(path, boundPackages...) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		for _, ff := range factsByPath[path].sortedFuncs() {
			if !ff.Op {
				continue
			}
			report.Ops = append(report.Ops, OpBound{
				Package:    path,
				Func:       ff.Name,
				Bound:      ff.Cost.String(),
				Expr:       ff.Cost,
				Unbounded:  ff.Cost.Unbounded(),
				Incomplete: ff.Incomplete,
				File:       relToRoot(root, ff.File),
				Line:       ff.Line,
			})
		}
	}
	return report
}
