// Command reprolint runs the repo's static-analysis suite — the
// machine-checked form of the atomic-statement model, the replay
// determinism contract, and the wait-freedom loop discipline
// (DESIGN.md §9, §13). It is a multichecker over the analyzers in
// internal/analysis:
//
//	atomicaccess     raw mem accessor use outside mem/sim
//	ctxescape        *sim.Ctx escaping its invocation body
//	determinism      wall clock / unseeded rand / goroutines / map order
//	                 in the replay-sensitive packages
//	simonly          native concurrency in algorithm packages
//	exhaustive       non-exhaustive switches over sim enums
//	waitfreebound    unbounded loops/recursion in algorithm packages;
//	                 derives per-operation statement bounds
//	statementcharge  raw mem access laundered through helper calls,
//	                 interprocedurally across packages
//
// plus validation of every `//repro:allow <key> <reason>` and
// `//repro:bound <expr> <reason>` marker: markers must parse, carry a
// non-empty reason, use a known key or model parameter, and be
// load-bearing — a marker that suppresses or bounds nothing fails the
// lint, so annotations cannot rot.
//
// Usage:
//
//	reprolint [-list] [-tests=false] [-format=text|json|sarif|github]
//	          [-o file] [-bounds file] [-cache=false] [-cache-dir dir]
//	          [-j N] [packages]
//
// Packages are module-root-relative patterns: ./... (default), ./dir,
// or ./dir/... . Dependencies of the selection are analyzed too (their
// facts feed the interprocedural passes) but only selected packages are
// reported on. Analysis is package-graph parallel with a content-hash
// incremental cache under .reprolint-cache/. reprolint runs from any
// directory inside the module, and relative -o, -bounds and -cache-dir
// paths name files under that working directory. Exit status is 1 when
// any diagnostic is reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list analyzers and exit")
		tests     = flag.Bool("tests", true, "also analyze _test.go files")
		format    = flag.String("format", "text", "output format: text, json, sarif, or github")
		out       = flag.String("o", "", "write findings to file instead of stdout")
		boundsOut = flag.String("bounds", "", "write the derived bounds report (JSON) to file")
		cache     = flag.Bool("cache", true, "use the incremental cache under .reprolint-cache/")
		cacheDir  = flag.String("cache-dir", "", "override the cache directory")
		workers   = flag.Int("j", 0, "package-analysis parallelism (default GOMAXPROCS)")
	)
	flag.Parse()
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	for _, p := range patterns {
		if err := analysis.ValidPattern(p); err != nil {
			fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
			fmt.Fprintln(os.Stderr, "usage: reprolint [flags] [./... | ./dir | ./dir/...]")
			os.Exit(2)
		}
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(2)
	}
	res, err := analysis.RunDriver(analysis.DriverOptions{
		Root:        root,
		Patterns:    patterns,
		Tests:       *tests,
		Cache:       *cache,
		CacheDir:    *cacheDir,
		Parallelism: *workers,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if err := analysis.WriteDiagnostics(w, *format, res.Diags, root); err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(2)
	}
	if *boundsOut != "" {
		if err := writeBounds(*boundsOut, res); err != nil {
			fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
			os.Exit(2)
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d finding(s) in %d package(s) (%d cached, %d analyzed)\n",
			len(res.Diags), res.Packages, res.CacheHits, res.CacheMisses)
		os.Exit(1)
	}
}

func writeBounds(path string, res *analysis.DriverResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return analysis.WriteBoundsReport(f, res.Bounds)
}
