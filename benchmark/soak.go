package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/campaign"
)

// soakCrashSalt derives the campaign's crash seed from the run seed.
const soakCrashSalt = 0x5deece66d

// soakSpec is one soak pass: a campaign over a fresh state directory
// ("" = in memory only).
type soakSpec struct {
	Runs    int64  `json:"runs"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
	Dir     string `json:"dir"`
}

// soakOutcome is what one soak pass reports.
type soakOutcome struct {
	Wall        float64 `json:"wall"`
	CPU         float64 `json:"cpu"`
	Runs        int64   `json:"runs"`
	Crashes     int64   `json:"crashes"`
	Violations  int     `json:"violations"`
	TimedOut    int64   `json:"timed_out"`
	Interrupted bool    `json:"interrupted"`
	Error       string  `json:"error,omitempty"`
}

// soakPass runs one campaign in this process.
func soakPass(s soakSpec) soakOutcome {
	c0, t0 := cpuSeconds(), now()
	r, err := campaign.Run(campaign.Config{
		Runs:       s.Runs,
		BaseSeed:   s.Seed,
		CrashSeed:  s.Seed ^ soakCrashSalt,
		MaxCrashes: 1,
		Parallel:   s.Workers,
		StateDir:   s.Dir,
	})
	out := soakOutcome{Wall: float64(now()-t0) / 1e9, CPU: cpuSeconds() - c0}
	if err != nil {
		out.Error = err.Error()
		return out
	}
	st := r.State
	out.Runs, out.Crashes, out.Violations, out.TimedOut, out.Interrupted =
		st.Runs, st.Crashes, len(st.Violations), st.TimedOut, r.Interrupted
	return out
}

// runSoakPass runs one soak pass in a fresh process of this binary when
// it can (e.exe set), in this process otherwise. Every one-shot replay
// leaves its process coroutines parked (artifact.Replay never closes
// its system), so a long series of campaigns in one process would grow
// without bound; one process per campaign is also how the soak command
// runs them.
func (e *env) runSoakPass(s soakSpec) (soakOutcome, error) {
	if e.exe == "" {
		return soakPass(s), nil
	}
	spec, err := json.Marshal(s)
	if err != nil {
		return soakOutcome{}, err
	}
	cmd := exec.Command(e.exe, "--soak-pass", string(spec))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return soakOutcome{}, fmt.Errorf("soak pass process: %w", err)
	}
	var out soakOutcome
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &out); err != nil {
		return soakOutcome{}, fmt.Errorf("soak pass result: %w", err)
	}
	return out, nil
}

// runSoakDurable runs durable soakmix campaigns, each over a fresh state
// directory: every run is a fresh artifact.Replay build plus a journal
// append, with fsyncs and checkpoints at the campaign's cadence.
func runSoakDurable(e *env) (*measured, error) {
	s := e.size
	m := &measured{workUnit: "runs"}
	m.probeMeta, _ = artifact.SoakMeta(e.seed, e.seed^soakCrashSalt, 0, 1)
	// Set-up is the fresh state directory a campaign starts from.
	var dir string
	keep, err := e.setUp(func() (func(), error) {
		d, err := e.mkTemp("soak-")
		if err != nil {
			return nil, err
		}
		dir = d
		return func() { os.RemoveAll(d) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer keep()
	pass := 0
	run := func(durable bool, parent int64) (soakOutcome, error) {
		spec := soakSpec{Runs: s.soakRuns, Seed: e.seed, Workers: e.workers}
		if durable {
			spec.Dir = filepath.Join(dir, fmt.Sprintf("pass-%d", pass))
			pass++
			defer os.RemoveAll(spec.Dir)
		}
		t0 := now()
		out, err := e.runSoakPass(spec)
		if err == nil && out.Error != "" {
			err = fmt.Errorf("campaign: %s", out.Error)
		}
		if err != nil {
			return out, err
		}
		e.tr.add(0, "campaign.Run", "campaign", parent, 0, t0, now(), map[string]any{
			"runs": out.Runs, "crashes": out.Crashes, "durable": durable})
		if err := e.orc.check("soak", wantSoak(out, s.soakRuns)); err != nil {
			return out, err
		}
		// Crash totals are left out: a soakmix replay is not a pure function
		// of its bundle (the reclaiming C&S reads its per-process registers
		// in map order), so the crash count of a run can differ between
		// identical replays.
		return out, e.orc.same("soak", fmt.Sprintf("runs=%d violations=%d", out.Runs, out.Violations))
	}
	err = e.passes(m, "soak-durable", func(traced bool, parent int64) (verdict, error) {
		out, err := run(true, parent)
		return verdict{work: float64(out.Runs), wall: out.Wall, cpu: out.CPU}, err
	})
	if err != nil {
		return nil, err
	}
	if !e.traced() {
		return m, nil
	}
	// The durability cost: the same campaign in memory only.
	var mem []float64
	for i := 0; i < max(2, len(m.wall)/2); i++ {
		out, err := run(false, 0)
		if err != nil {
			return nil, err
		}
		mem = append(mem, out.Wall)
	}
	m.layers = map[string]float64{"campaign.durability_cost": median(m.wall)/median(mem) - 1}
	return m, nil
}

// soakBundles replays the workload's own soak runs, as the campaign
// derives them.
func soakBundles(seed int64) func(int64) *artifact.Bundle {
	return func(i int64) *artifact.Bundle {
		meta, s := artifact.SoakMeta(seed, seed^soakCrashSalt, i, 1)
		return &artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: s}
	}
}
