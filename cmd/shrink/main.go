// Command shrink minimizes a counterexample repro bundle to a kernel a
// human can read straight off the timeline.
//
// The input is either a bundle written by cmd/checker -artifact-dir,
// cmd/soak -artifact-dir, or internal/artifact directly — or a captured
// soak log, in which case the machine-readable last-line JSON summary is
// parsed and its "artifact" path loaded. The bundle is replayed,
// shrunk (ddmin chunk removal, per-decision lowering, crash-point
// removal, quantum/level lowering; every accepted candidate re-verified
// by a fresh replay), and the minimized bundle written back out. Before
// and after ASCII timelines are printed so the reduction is visible.
//
// Usage:
//
//	shrink bundle.json                      # writes bundle.min.json
//	shrink -o small.json bundle.json
//	shrink -budget 2000 bundle.json         # more candidate replays
//	shrink -match wait-freedom bundle.json  # preserve the failure kind
//	shrink soak.log                         # follow the log's "artifact" path
//	shrink -q bundle.json                   # stats only, no timelines
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/minimize"
)

func main() {
	var (
		out    = flag.String("o", "", "output path for the minimized bundle (default <input>.min.json)")
		budget = flag.Int("budget", 0, "candidate replays allowed (0 = internal/minimize default)")
		match  = flag.String("match", "", "only accept candidates whose error contains this substring (default: any failure)")
		quiet  = flag.Bool("q", false, "suppress the before/after timelines")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: shrink [-o out.json] [-budget N] [-match substr] [-q] <bundle.json | soak.log>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	in := flag.Arg(0)

	b, src, err := load(in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("shrink: loaded %s (workload %q, %s)\n", src, b.Meta.Workload, describe(b))

	// The bundle's recorded state is advisory; show the pre-shrink run
	// from a fresh replay so the "before" picture cannot be stale.
	rep, err := artifact.Replay(b, artifact.ReplayOptions{Trace: true})
	if err != nil {
		fatal(err)
	}
	if rep.Err == nil {
		fatal(fmt.Errorf("bundle does not fail its property; nothing to shrink"))
	}
	fmt.Printf("shrink: before: %v (%d steps)\n", rep.Err, rep.Steps)
	if !*quiet {
		fmt.Printf("\n--- before ---\n%s\n", rep.Trace)
	}

	opts := minimize.Options{Budget: *budget}
	if *match != "" {
		opts.Match = func(err error) bool { return strings.Contains(err.Error(), *match) }
	}
	min, stats, err := minimize.Shrink(b, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("shrink: %s\n", stats)
	fmt.Printf("shrink: after: %s\n", min.Err)
	fmt.Printf("shrink: decisions=%v crashes=%v\n", min.Sched.Decisions, min.Meta.Crashes)
	if !*quiet {
		fmt.Printf("\n--- after ---\n%s\n", min.Trace)
	}

	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(src, ".json") + ".min.json"
	}
	if err := min.Save(dst); err != nil {
		fatal(err)
	}
	fmt.Printf("shrink: minimized bundle written to %s\n", dst)
}

// load reads the input as a repro bundle, or — when it is a soak log —
// follows the "artifact" path in the log's last-line JSON summary. It
// returns the bundle and the path it was actually loaded from.
func load(path string) (*artifact.Bundle, string, error) {
	b, berr := artifact.Load(path)
	if berr == nil {
		return b, path, nil
	}
	art, serr := soakArtifact(path)
	if serr != nil {
		return nil, "", fmt.Errorf("%s is neither a repro bundle (%v) nor a soak log (%v)", path, berr, serr)
	}
	b, err := artifact.Load(art)
	if err != nil {
		return nil, "", err
	}
	return b, art, nil
}

// soakArtifact extracts the "artifact" path from the last non-empty
// line of a cmd/soak log.
func soakArtifact(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	var summary struct {
		Failed   bool   `json:"failed"`
		Artifact string `json:"artifact"`
	}
	if err := json.Unmarshal([]byte(last), &summary); err != nil {
		return "", fmt.Errorf("last line is not a soak summary: %w", err)
	}
	if !summary.Failed {
		return "", fmt.Errorf("soak summary reports no failure")
	}
	if summary.Artifact == "" {
		return "", fmt.Errorf("soak summary names no artifact (was soak run with -artifact-dir?)")
	}
	return summary.Artifact, nil
}

func describe(b *artifact.Bundle) string {
	if !b.Sched.Scripted() {
		model, seed := "uniform", b.Sched.Seed
		if m := b.Sched.Model; m != nil {
			model = m.Name
			if seed == 0 {
				seed = m.Seed
			}
		}
		return fmt.Sprintf("%s schedule seed %d, %d planned crashes", model, seed, len(b.Meta.Crashes))
	}
	return fmt.Sprintf("%d decisions, %d planned crashes", len(b.Sched.Decisions), len(b.Meta.Crashes))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "shrink: %v\n", err)
	os.Exit(1)
}
