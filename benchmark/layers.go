package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/minimize"
	"repro/internal/sched"
	"repro/internal/store"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
	// group says where a per-layer metric comes from: "probe" metrics
	// are direct calls into the layer, made in every traced run; the
	// other groups are measured in situ by the workload that owns them
	// (see layerGroups).
	group string
}

// endToEnd lists the metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{name: "verdict_s", unit: "s"},
	{name: "verdict_cpu_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MiB"},
	{name: "setup_s", unit: "s"},
}

// perLayer lists the metrics every traced run reports, in BENCHMARK.json
// order.
var perLayer = []metricDef{
	{"sim.replay_ns", "ns", "probe"},
	{"sim.reset_ns", "ns", "probe"},
	{"sim.ns_per_stmt", "ns", "probe"},
	{"sim.fingerprint_ns", "ns", "probe"},
	{"sim.allocs_per_run", "count", "probe"},
	{"sim.stmts_per_run", "count", "check"},
	{"sim.run_ns", "ns", "check"},
	{"sched.pick_ns", "ns", "check"},
	{"sched.picks_per_run", "count", "check"},
	{"check.runs", "count", "check"},
	{"check.schedules", "count", "check"},
	{"check.useful_run_ratio", "ratio", "check"},
	{"check.fp_pruned_runs", "count", "check"},
	{"check.sleep_skipped_branches", "count", "check"},
	{"check.verify_ns", "ns", "check"},
	{"check.ns_per_run", "ns", "check"},
	{"check.driver_ns_per_run", "ns", "check"},
	{"check.steals_per_1k_runs", "count", "check"},
	{"check.speedup", "ratio", "check"},
	{"artifact.build_ns", "ns", "probe"},
	{"artifact.replay_us", "us", "probe"},
	{"campaign.append_us", "us", "probe"},
	{"campaign.fsync_ms_p50", "ms", "probe"},
	{"campaign.fsync_ms_p90", "ms", "probe"},
	{"campaign.checkpoint_ms", "ms", "probe"},
	{"campaign.durability_cost", "ratio", "campaign"},
	{"minimize.shrink_ms", "ms", "probe"},
	{"minimize.candidates_per_s", "1/s", "probe"},
	{"store.put_artifact_ms", "ms", "probe"},
	{"store.put_raw_ms", "ms", "probe"},
	{"store.write_job_file_ms", "ms", "probe"},
	{"service.submit_ms", "ms", "service"},
	{"service.queue_wait_s", "s", "service"},
	{"service.run_s", "s", "service"},
	{"service.leg_s", "s", "service"},
	{"service.events_per_job", "count", "service"},
	{"service.artifact_fetch_ms", "ms", "service"},
	{"service.job_p90_s", "s", "service"},
	{"service.jobs_per_s", "1/s", "service"},
	{"analysis.packages_analyzed", "count", "analysis"},
	{"analysis.cache_hits", "count", "analysis"},
	{"analysis.cache_misses", "count", "analysis"},
	{"analysis.cold_s", "s", "analysis"},
	{"analysis.warm_ms", "ms", "analysis"},
	{"trace.overhead", "ratio", "trace"},
}

// layerGroups maps an in-situ metric group to the workload that owns
// it. Every traced run reports every per-layer metric; a group its own
// workload does not exercise comes from the owner's traced run at full
// size (completeLayers).
var layerGroups = map[string]string{
	"check":    "verify-budget",
	"campaign": "soak-durable",
	"service":  "farm",
	"analysis": "lint",
}

// completeLayers gives every traced run the per-layer metrics of the
// groups its workload does not exercise, each from the traced run of
// the group's owner: a run in runs when there is one, else a helper run,
// which measures the owner at full size for the shortest window (see
// passes) and writes the owner's trace file. A helper's checks count toward the run it completes.
func completeLayers(runs []runResult, helper func(owner string) runResult) {
	byGroup := map[string]*runResult{}
	for i := range runs {
		if g := workloadByName(runs[i].Workload).group; byGroup[g] == nil && runs[i].Error == "" {
			byGroup[g] = &runs[i]
		}
	}
	for i := range runs {
		r := &runs[i]
		if r.Error != "" {
			continue
		}
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.name]; ok {
				continue
			}
			src := byGroup[d.group]
			if src == nil {
				h := helper(layerGroups[d.group])
				src = &h
				byGroup[d.group] = src
				r.Attempted += h.Attempted
				r.Failed += h.Failed
				r.Failures = append(r.Failures, h.Failures...)
			}
			v, ok := src.Metrics[d.name]
			if !ok {
				r.Attempted++
				r.Failed++
				r.Failures = append(r.Failures, fmt.Sprintf("per-layer metric %s was not measured", d.name))
				continue
			}
			r.Metrics[d.name] = v
		}
		r.Correct = r.Failed == 0
	}
}

// probeLayers makes the direct calls into the sim, artifact, campaign,
// store and minimize layers. The sim and artifact probes build the
// workload's own system; bundle(i) is the i-th bundle the replay probe
// replays.
func (e *env) probeLayers(meta artifact.Meta, bundle func(i int64) *artifact.Bundle) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range []func(map[string]float64) error{
		func(out map[string]float64) error { return e.probeSim(meta, out) },
		func(out map[string]float64) error { return e.probeArtifact(meta, bundle, out) },
		e.probeCampaign,
		e.probeStore,
		e.probeMinimize,
	} {
		if err := probe(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeSim replays the default schedule on one pooled system: Reset,
// Run and Fingerprint, timed apart, plus heap allocations per run.
func (e *env) probeSim(meta artifact.Meta, out map[string]float64) error {
	script := &sched.Script{}
	sys, verify, err := artifact.Build(meta, script, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	verify(sys.Run()) // the warm-up run's verdict is not what the probe measures
	var resetNs, runNs, fpNs, stmts, n int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := now()
	for n < 100 || time.Duration(now()-t0) < e.size.probeTime {
		a := now()
		sys.Reset()
		script.Reset(nil)
		b := now()
		sys.Run()
		c := now()
		sys.Fingerprint()
		d := now()
		resetNs += b - a
		runNs += c - b
		fpNs += d - c
		stmts += sys.Steps()
		n++
	}
	runtime.ReadMemStats(&after)
	e.tr.add(0, "sim.probe", "sim", 0, 0, t0, now(), map[string]any{"runs": n, "workload": meta.Workload})
	out["sim.replay_ns"] = float64(resetNs+runNs) / float64(n)
	out["sim.reset_ns"] = float64(resetNs) / float64(n)
	out["sim.ns_per_stmt"] = float64(runNs) / float64(max(stmts, 1))
	out["sim.fingerprint_ns"] = float64(fpNs) / float64(n)
	out["sim.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	return nil
}

// probeArtifact times fresh builds and whole-bundle replays.
func (e *env) probeArtifact(meta artifact.Meta, bundle func(i int64) *artifact.Bundle, out map[string]float64) error {
	var buildNs, n int64
	t0 := now()
	for n < 50 || time.Duration(now()-t0) < e.size.probeTime {
		a := now()
		sys, _, err := artifact.Build(meta, &sched.Script{}, nil)
		if err != nil {
			return err
		}
		buildNs += now() - a
		sys.Close()
		n++
	}
	out["artifact.build_ns"] = float64(buildNs) / float64(n)

	var replayNs, reps int64
	t0 = now()
	for i := int64(0); reps < 20 || time.Duration(now()-t0) < e.size.probeTime; i++ {
		a := now()
		if _, err := artifact.Replay(bundle(i), artifact.ReplayOptions{}); err != nil {
			return err
		}
		b := now()
		e.tr.add(0, "artifact.Replay", "artifact", 0, 0, a, b, nil)
		replayNs += b - a
		reps++
	}
	out["artifact.replay_us"] = float64(replayNs) / float64(reps) / 1e3
	return nil
}

// defaultBundle replays meta's default (all-zeros) schedule.
func defaultBundle(meta artifact.Meta) func(int64) *artifact.Bundle {
	return func(int64) *artifact.Bundle {
		return &artifact.Bundle{Version: artifact.Version, Meta: meta}
	}
}

// probeCampaign times the campaign's persistence primitives on the
// run's scratch filesystem: journal appends, journal fsyncs, and
// atomic checkpoints.
func (e *env) probeCampaign(out map[string]float64) error {
	dir, err := e.mkTemp("campaign-probe-")
	if err != nil {
		return err
	}
	j, _, err := campaign.OpenJournal(campaign.JournalPath(dir), nil)
	if err != nil {
		return err
	}
	const appends, syncs, checkpoints = 400, 30, 20
	var appendNs int64
	for i := 0; i < appends; i++ {
		a := now()
		j.Append(campaign.Record{Type: "run", Idx: int64(i)})
		appendNs += now() - a
	}
	var syncMs []float64
	for i := 0; i < syncs; i++ {
		j.Append(campaign.Record{Type: "run", Idx: int64(appends + i)})
		a := now()
		err := j.Sync()
		b := now()
		if err != nil {
			j.Close()
			return fmt.Errorf("journal sync: %w", err)
		}
		e.tr.add(0, "campaign.Journal.Sync", "campaign", 0, 0, a, b, nil)
		syncMs = append(syncMs, float64(b-a)/1e6)
	}
	if err := j.Close(); err != nil {
		return err
	}
	var ckptMs []float64
	cp := &campaign.Checkpoint{Version: 1, State: campaign.State{NextIdx: appends, Runs: appends}}
	for i := 0; i < checkpoints; i++ {
		a := now()
		if err := campaign.WriteCheckpoint(dir, cp); err != nil {
			return err
		}
		b := now()
		e.tr.add(0, "campaign.WriteCheckpoint", "campaign", 0, 0, a, b, nil)
		ckptMs = append(ckptMs, float64(b-a)/1e6)
	}
	out["campaign.append_us"] = float64(appendNs) / appends / 1e3
	out["campaign.fsync_ms_p50"] = median(syncMs)
	out["campaign.fsync_ms_p90"] = quantile(syncMs, 0.9)
	out["campaign.checkpoint_ms"] = median(ckptMs)
	return nil
}

// probeStore times the store's three write paths with distinct content
// (the store skips writes of content it already holds).
func (e *env) probeStore(out map[string]float64) error {
	dir, err := e.mkTemp("store-probe-")
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	id, err := st.CreateJob()
	if err != nil {
		return err
	}
	const n = 20
	var putArt, putRaw, jobFile []float64
	for i := 0; i < n; i++ {
		b := &artifact.Bundle{Version: artifact.Version, Meta: artifact.Meta{Workload: "unicons", N: 3, Quantum: 2},
			Sched: artifact.Sched{Random: true, Seed: int64(i)}}
		a := now()
		if _, err := st.PutArtifact(b); err != nil {
			return err
		}
		putArt = append(putArt, float64(now()-a)/1e6)
		raw := []byte(fmt.Sprintf(`{"probe":%d}`, i))
		a = now()
		if _, err := st.PutRawArtifact(raw); err != nil {
			return err
		}
		putRaw = append(putRaw, float64(now()-a)/1e6)
		a = now()
		if err := st.WriteJobFile(id, "status.json", raw); err != nil {
			return err
		}
		jobFile = append(jobFile, float64(now()-a)/1e6)
	}
	out["store.put_artifact_ms"] = median(putArt)
	out["store.put_raw_ms"] = median(putRaw)
	out["store.write_job_file_ms"] = median(jobFile)
	return nil
}

// shrinkMeta is the fixed counterexample the minimize probe shrinks:
// Fig. 3 for three processes at Q = 1, far below Theorem 1's Q >= 8.
var shrinkMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 1, MaxSteps: 1 << 16}

// probeMinimize shrinks the first violating seeded-random run of
// shrinkMeta, three times, and reports the median.
func (e *env) probeMinimize(out map[string]float64) error {
	var bundle *artifact.Bundle
	for seed := int64(0); seed < 500 && bundle == nil; seed++ {
		b, rep, err := artifact.Capture(shrinkMeta, artifact.Sched{Random: true, Seed: seed})
		if err != nil {
			return err
		}
		if rep.Failed() {
			bundle = b
		}
	}
	if bundle == nil {
		return fmt.Errorf("minimize probe: no violation in 500 seeds")
	}
	var ms, rate []float64
	for i := 0; i < 3; i++ {
		a := now()
		_, stats, err := minimize.Shrink(bundle, minimize.Options{})
		b := now()
		if err != nil {
			return err
		}
		e.tr.add(0, "minimize.Shrink", "minimize", 0, 0, a, b, map[string]any{"candidates": stats.Tried})
		secs := float64(b-a) / 1e9
		ms = append(ms, secs*1e3)
		rate = append(rate, float64(stats.Tried)/secs)
	}
	out["minimize.shrink_ms"] = median(ms)
	out["minimize.candidates_per_s"] = median(rate)
	return nil
}
