package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is BENCHMARK.json: compare reads the bounds, the tests
// check the lists against the code's.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// minGainPairs is the least number of parent/change pairs a gain may
// rest on.
const minGainPairs = 10

// absFloor is, per metric, the absolute difference no verdict rests on.
// Set-up takes a few milliseconds on most workloads, mostly a process
// start, which the host's drift moves by tens of percent; a difference
// below 20 ms is not one a user of the checker sees.
var absFloor = map[string]float64{"setup_s": 0.020}

// runCompare applies the paired-run rule to two sets of result files
// (from --out). For each workload it pairs the i-th untraced run of each
// set, taking the files in name order; the runs are meant to alternate
// base and change. Per (workload, metric):
//
//   - unresolved: the run-to-run spread (quartile distance over median)
//     of either set exceeds the metric's bound, unless every change run
//     beats every base run;
//   - regression: the change's median is worse than the base's by more
//     than the bound;
//   - gain: at least minGainPairs pairs, the change wins at least 9/10
//     of them (ties count for neither), and the medians differ by more
//     than the base's quartile distance;
//   - unchanged otherwise.
//
// A spread or a difference no larger than the metric's absFloor counts
// for nothing. It exits 1 when any row is a regression or unresolved.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: --compare wants two globs: 'base-*.json' 'change-*.json'")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	base, err := loadSet(args[0])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("no files match %q", args[0])
	}
	var change []resultFile
	if err == nil {
		change, err = loadSet(args[1])
		if err == nil && len(change) == 0 {
			err = fmt.Errorf("no files match %q", args[1])
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	var workloadNames []string
	seen := map[string]bool{}
	for _, f := range base {
		for _, r := range f.Runs {
			if !seen[r.Workload] && !r.Trace {
				seen[r.Workload] = true
				workloadNames = append(workloadNames, r.Workload)
			}
		}
	}
	sort.Strings(workloadNames)
	fmt.Printf("%-16s %-14s %12s %12s %8s %8s %6s %7s  %s\n",
		"workload", "metric", "base", "change", "spread", "bound", "wins", "delta", "verdict")
	failing := 0
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			b := values(base, wl, m.Name)
			c := values(change, wl, m.Name)
			pairs := min(len(b), len(c))
			if pairs == 0 {
				fmt.Printf("%-16s %-14s no runs in one of the sets\n", wl, m.Name)
				failing++
				continue
			}
			if len(b) != len(c) {
				fmt.Fprintf(os.Stderr, "benchmark: %s %s: %d base and %d change runs; comparing the first %d pairs\n",
					wl, m.Name, len(b), len(c), pairs)
			}
			row := judge(b[:pairs], c[:pairs], m.Better == "higher", m.Bound, absFloor[m.Name])
			if row.verdict == "regression" || row.verdict == "unresolved" {
				failing++
			}
			fmt.Printf("%-16s %-14s %12.6g %12.6g %7.1f%% %7.1f%% %3d/%-2d %+6.1f%%  %s\n",
				wl, m.Name, row.baseMed, row.changeMed, 100*row.spread, 100*m.Bound,
				row.wins, pairs, 100*row.delta, row.verdict)
		}
	}
	if failing > 0 {
		return 1
	}
	return 0
}

func loadSet(glob string) ([]resultFile, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []resultFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// values collects one metric of one workload's untraced runs, in file
// order.
func values(files []resultFile, workload, name string) []float64 {
	var out []float64
	for _, f := range files {
		for _, r := range f.Runs {
			if v, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				out = append(out, v.Value)
				break
			}
		}
	}
	return out
}

type judgement struct {
	baseMed, changeMed float64
	spread             float64 // the larger relative quartile distance of the two sets
	delta              float64 // (change - base) / base, signed so that positive is worse
	wins               int
	verdict            string
}

// judge applies the paired-run rule to one metric whose differences up
// to floor, in its own unit, do not count.
func judge(base, change []float64, higherBetter bool, bound, floor float64) judgement {
	better := func(a, b float64) bool { // a is better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	j := judgement{baseMed: median(base), changeMed: median(change)}
	for i := range base {
		if better(change[i], base[i]) {
			j.wins++
		}
	}
	j.delta = (j.changeMed - j.baseMed) / j.baseMed
	if higherBetter {
		j.delta = -j.delta
	}
	baseIQR, changeIQR := iqr(base), iqr(change)
	j.spread = max(baseIQR/j.baseMed, changeIQR/j.changeMed)
	diff := math.Abs(j.changeMed - j.baseMed)
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	switch {
	case j.spread > bound && max(baseIQR, changeIQR) > floor && !allBetter:
		j.verdict = "unresolved"
	case j.delta > bound && diff > floor:
		j.verdict = "regression"
	case len(base) >= minGainPairs && j.wins*10 >= 9*len(base) &&
		diff > max(baseIQR, floor) && j.delta < 0:
		j.verdict = "gain"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// iqr is the distance between the first and third quartiles, computed
// as Python's statistics.quantiles(values, n=4) does (the exclusive
// method).
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}
