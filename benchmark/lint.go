package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// benchDir is this benchmark's directory in the repository; the lint
// copy leaves it out, so the module linted is the program alone.
const benchDir = "benchmark"

// runLint lints a copy of the module with the patterns every caller
// uses (./... at full size: the Makefile, CI and the farm's lint jobs).
// A cold run on an empty cache comes first. Each timed pass then appends
// a fresh comment to one file and times the incremental run that
// follows: the verdict a developer waits for after an edit. A warm run,
// unchanged, ends the pass. At full size the edited package sits at the
// edge of the import graph (internal/valency, imported by cmd/valency
// alone), so a pass re-analyzes two package dirs, takes hits for the
// rest, and lasts about a second and a half: several passes fit in a
// run and the verdict is their median. An edit to the kernel instead
// re-analyzes nearly every dir and costs as much as the cold run, which
// analysis.cold_s reports; as a verdict it gave one sample per run,
// which the machine's drift swung by a quarter from run to run.
func runLint(e *env) (*measured, error) {
	s := e.size
	m := &measured{workUnit: "packages", probeMeta: waitFreeMeta, tracedLayers: true}
	var mod string
	keep, err := e.setUp(func() (func(), error) {
		dir, err := e.mkTemp("lint-")
		if err != nil {
			return nil, err
		}
		if err := copyModule(e.root, dir); err != nil {
			return nil, err
		}
		mod = dir
		return func() {
			os.RemoveAll(dir)
			settle()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer keep()

	// The analysis driver's source importer resolves module imports through the go
	// command, which finds the module from the working directory.
	prev, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.Chdir(mod); err != nil {
		return nil, err
	}
	defer os.Chdir(prev)

	edited := filepath.Join(mod, s.lintEdit)
	orig, err := os.ReadFile(edited)
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(mod, ".reprolint-cache")
	wantUnicons := slices.Contains(s.lintPatterns, "./...") || slices.Contains(s.lintPatterns, "./internal/unicons")
	var coldSecs float64
	var warm []float64
	last := map[string]*analysis.DriverResult{}
	lint := func(kind string, parent int64) (*analysis.DriverResult, float64, float64, error) {
		c0, t0 := cpuSeconds(), now()
		r, err := analysis.RunDriver(analysis.DriverOptions{
			Root: mod, Patterns: s.lintPatterns, Tests: true, Cache: true, CacheDir: cacheDir, Parallelism: e.workers})
		t1, c1 := now(), cpuSeconds()
		if err != nil {
			return nil, 0, 0, err
		}
		e.tr.add(0, "lint "+kind, "analysis", parent, 0, t0, t1, map[string]any{
			"analyzed": r.Analyzed, "hits": r.CacheHits, "misses": r.CacheMisses})
		if err := e.orc.check("lint "+kind, wantLint(kind, r, wantUnicons, s.lintMisses)); err != nil {
			return nil, 0, 0, err
		}
		outcome := fmt.Sprintf("diags=%d analyzed=%d hits=%d misses=%d bounds=%d", len(r.Diags), r.Analyzed, r.CacheHits, r.CacheMisses, len(r.Bounds.Ops))
		if err := e.orc.same("lint "+kind, outcome); err != nil {
			return nil, 0, 0, err
		}
		return r, float64(t1-t0) / 1e9, c1 - c0, nil
	}
	edits := 0
	err = e.passes(m, "lint", func(traced bool, parent int64) (verdict, error) {
		if last["cold"] == nil {
			// The warm-up pass is the cold run: it fills the cache every
			// later run starts from.
			rc, secs, _, err := lint("cold", parent)
			if err != nil {
				return verdict{}, err
			}
			coldSecs, last["cold"] = secs, rc
			return verdict{}, nil
		}
		edits++
		edit := fmt.Sprintf("\n// edit %d by the lint benchmark\n", edits)
		if err := replaceFile(edited, append(append([]byte{}, orig...), edit...)); err != nil {
			return verdict{}, err
		}
		ri, incrSecs, incrCPU, err := lint("incr", parent)
		if err != nil {
			return verdict{}, err
		}
		rw, warmSecs, _, err := lint("warm", parent)
		if err != nil {
			return verdict{}, err
		}
		warm = append(warm, warmSecs)
		last["incr"], last["warm"] = ri, rw
		return verdict{work: float64(ri.CacheMisses), wall: incrSecs, cpu: incrCPU}, nil
	})
	if err != nil {
		return nil, err
	}
	if e.traced() {
		m.layers = map[string]float64{
			"analysis.packages_analyzed": float64(last["cold"].Analyzed),
			"analysis.cache_hits":        float64(last["incr"].CacheHits),
			"analysis.cache_misses":      float64(last["incr"].CacheMisses),
			"analysis.cold_s":            coldSecs,
			"analysis.warm_ms":           median(warm) * 1e3,
		}
	}
	e.log("lint %v: cold %.3fs, incremental %.3fs, warm %.1fms (%d of %d package dirs re-analyzed after the edit)",
		s.lintPatterns, coldSecs, median(append(m.wall, m.tracedWall...)), median(warm)*1e3, last["incr"].CacheMisses, last["incr"].Analyzed)
	return m, nil
}

// copyModule copies the module at root into dst, leaving out hidden
// directories (.git, caches, build output) and the benchmark itself.
// Files are hard links to the originals: the driver only reads them,
// and the one file a lint pass edits is replaced (replaceFile), never
// written through. Copying the data instead made the set-up several
// times slower and its time swing with the filesystem's state.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == benchDir) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
}

// replaceFile gives path new content by renaming a fresh file over it,
// so a hard link's other names keep the old content.
func replaceFile(path string, data []byte) error {
	tmp := path + ".edit"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
