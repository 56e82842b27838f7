package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/service"
	"repro/internal/service/jobspec"
	"repro/internal/store"
)

// farmClients is the number of closed-loop clients: each waits for its
// own job's verdict before submitting the next, as a caller of the farm
// does.
const farmClients = 2

// farmLegSchedules is the service's default durability leg size; the
// budget-check job's leg count follows from it.
const farmLegSchedules = 2000

// farmKind is one job kind of the farm's mix.
type farmKind struct {
	name string
	spec *jobspec.Spec
	// want checks the terminal status; fetch reports whether the job's
	// artifacts are fetched and replayed.
	want  func(st service.Status) error
	fetch bool
}

// Each job sets its kind's inputs and leaves every other option at the
// API's default, the minimizer's replay budget among them, as callers
// do. Their one-shot replays leave their process coroutines parked
// (artifact.Replay never closes its system), so the server grows by
// about 11 MiB per fuzz-check job and 80 MiB per soak job: an 8-second
// farm run peaks near 1.4 GiB.
var (
	farmBudgetMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 8}
	farmFuzzMeta   = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2}
)

const (
	farmBudget          = 5
	farmBudgetSchedules = 12186 // known answer: unicons N=3 Q=8 at budget 5
	farmFuzzSeeds       = 3000
	farmSoakRuns        = 1500
	farmMeasureReplays  = 20000
)

func farmKinds(seed int64) []farmKind {
	model := fmt.Sprintf("uniform:seed=%d", seed)
	legs := (farmBudgetSchedules + farmLegSchedules - 1) / farmLegSchedules
	return []farmKind{
		{
			name: "budget-check",
			spec: &jobspec.Spec{Kind: jobspec.KindCheck, Check: &jobspec.Check{
				Meta: farmBudgetMeta, Mode: jobspec.ModeBudget, Budget: farmBudget}},
			want: func(st service.Status) error {
				if st.State != service.StateDone || st.Schedules != farmBudgetSchedules || st.Legs != legs || st.Violations != 0 {
					return fmt.Errorf("state %s, %d schedules in %d legs, %d violations: want done, %d schedules in %d legs, 0 violations",
						st.State, st.Schedules, st.Legs, st.Violations, farmBudgetSchedules, legs)
				}
				return nil
			},
		},
		{
			name: "fuzz-check",
			spec: &jobspec.Spec{Kind: jobspec.KindCheck, Check: &jobspec.Check{
				Meta: farmFuzzMeta, Mode: jobspec.ModeFuzz, Seeds: farmFuzzSeeds, Model: model,
				Artifacts: true, Minimize: true}},
			want: func(st service.Status) error {
				if st.State != service.StateFailed || st.Violations == 0 || len(st.Artifacts) == 0 {
					return fmt.Errorf("state %s, %d violations, %d artifacts: want failed with artifacts (Q=%d is below Theorem 1's 8)",
						st.State, st.Violations, len(st.Artifacts), farmFuzzMeta.Quantum)
				}
				return nil
			},
			fetch: true,
		},
		{
			name: "soak",
			// One crash-stop fault per run, as soak-durable injects: without
			// faults some soakmix runs hit a reclamation bug (README,
			// finding 5), and the workload must not fail.
			spec: &jobspec.Spec{Kind: jobspec.KindSoak, Soak: &jobspec.Soak{Runs: farmSoakRuns, Seed: seed, MaxCrashes: 1}},
			want: func(st service.Status) error {
				if st.State != service.StateDone || st.Runs != farmSoakRuns || st.Violations != 0 {
					return fmt.Errorf("state %s, %d runs, %d violations: want done, %d runs, 0 violations",
						st.State, st.Runs, st.Violations, farmSoakRuns)
				}
				return nil
			},
		},
		{
			name: "measure",
			spec: &jobspec.Spec{Kind: jobspec.KindMeasure, Measure: &jobspec.Measure{
				Meta: farmBudgetMeta, Model: model, Replays: farmMeasureReplays}},
			want: func(st service.Status) error {
				if st.State != service.StateDone || st.Violations != 0 || len(st.Artifacts) != 1 {
					return fmt.Errorf("state %s, %d violations, %d artifacts: want done, 0 violations, 1 artifact",
						st.State, st.Violations, len(st.Artifacts))
				}
				return nil
			},
		},
	}
}

// farm is one booted service behind a loopback HTTP server.
type farm struct {
	dir    string
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
}

// startFarm boots a service over a fresh store and checks it answers.
func (e *env) startFarm() (*farm, error) {
	dir, err := e.mkTemp("farm-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Store: st, GlobalWorkers: e.workers, LegSchedules: farmLegSchedules})
	if err != nil {
		return nil, err
	}
	f := &farm{dir: dir, svc: svc, srv: httptest.NewServer(svc.Handler())}
	f.client = f.srv.Client()
	resp, err := f.client.Get(f.srv.URL + "/healthz")
	if err != nil {
		f.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.stop()
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return f, nil
}

func (f *farm) stop() {
	f.srv.Close()
	f.svc.Stop()
	os.RemoveAll(f.dir)
}

// jobTimes is what the client saw of one job.
type jobTimes struct {
	kind     string
	traced   bool
	latency  float64   // POST until the terminal status, seconds
	submit   float64   // the POST, seconds
	queued   float64   // POST answered until the "running" event, seconds
	running  float64   // "running" until the terminal event, seconds
	legs     []float64 // intervals between leg events, seconds
	events   int
	fetches  []float64 // artifact GETs, seconds
	outcome  string
	failures []string
}

// do sends one request and returns the body of a 2xx answer.
func (f *farm) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, f.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// runJob submits one job, streams its events to the end, fetches its
// status (and artifacts), and records the client-side timings as spans.
func (e *env) runJob(f *farm, k farmKind, tid int, traced bool) (*jobTimes, error) {
	jt := &jobTimes{kind: k.name, traced: traced}
	tr := e.tr
	if !traced {
		tr = nil
	}
	jobID := tr.id()
	body, err := json.Marshal(k.spec)
	if err != nil {
		return nil, err
	}
	t0 := now()
	data, err := f.do("POST", "/jobs", body)
	t1 := now()
	if err != nil {
		return nil, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, fmt.Errorf("decode submit answer: %w", err)
	}
	tr.add(0, "submit", "service", jobID, tid, t0, t1, nil)

	resp, err := f.client.Get(f.srv.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /jobs/%s/events: HTTP %d", sub.ID, resp.StatusCode)
	}
	var runningAt, lastLeg int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		at := now()
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("decode event: %w", err)
		}
		jt.events++
		switch {
		case ev.Type == "state" && strings.HasPrefix(ev.Text, "running"):
			runningAt, lastLeg = at, at
			tr.add(0, "queued", "service", jobID, tid, t1, at, nil)
		case ev.Type == "leg":
			jt.legs = append(jt.legs, float64(at-lastLeg)/1e9)
			tr.add(0, "leg", "service", jobID, tid, lastLeg, at, map[string]any{"text": ev.Text})
			lastLeg = at
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	endAt := now()
	data, err = f.do("GET", "/jobs/"+sub.ID, nil)
	t2 := now()
	if err != nil {
		return nil, err
	}
	var st service.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decode status: %w", err)
	}
	if runningAt != 0 {
		jt.queued = float64(runningAt-t1) / 1e9
		jt.running = float64(endAt-runningAt) / 1e9
		tr.add(0, "running", "service", jobID, tid, runningAt, endAt, nil)
	}
	jt.submit = float64(t1-t0) / 1e9
	jt.latency = float64(t2-t0) / 1e9
	tr.add(jobID, "job "+k.name, "job", 0, tid, t0, t2, map[string]any{"id": sub.ID, "state": st.State})

	if err := k.want(st); err != nil {
		jt.failures = append(jt.failures, err.Error())
	}
	if k.fetch {
		for _, key := range st.Artifacts {
			a := now()
			blob, err := f.do("GET", "/artifacts/"+key, nil)
			b := now()
			if err != nil {
				return nil, err
			}
			tr.add(0, "artifact.fetch", "service", jobID, tid, a, b, nil)
			jt.fetches = append(jt.fetches, float64(b-a)/1e9)
			if err := wantReplayFails(blob); err != nil {
				jt.failures = append(jt.failures, "artifact "+key[:12]+": "+err.Error())
			}
		}
	}
	jt.outcome = fmt.Sprintf("state=%s schedules=%d runs=%d violations=%d artifacts=%d",
		st.State, st.Schedules, st.Runs, st.Violations, len(st.Artifacts))
	return jt, nil
}

// check runs the oracle over one finished job.
func (e *env) checkJob(jt *jobTimes) error {
	var err error
	if len(jt.failures) > 0 {
		err = fmt.Errorf("%s", strings.Join(jt.failures, "; "))
	}
	if err := e.orc.check("farm "+jt.kind, err); err != nil {
		return err
	}
	return e.orc.same("farm "+jt.kind, jt.outcome)
}

// runFarm drives an in-process service over loopback HTTP with two
// closed-loop clients. Jobs come in blocks holding one job of each kind
// in a seeded order, and the run ends on a block boundary, so every
// run's sample holds the kinds in equal shares.
func runFarm(e *env) (*measured, error) {
	s := e.size
	m := &measured{workUnit: "job", probeMeta: farmBudgetMeta}
	kinds := farmKinds(e.seed)
	var f *farm
	keep, err := e.setUp(func() (func(), error) {
		var err error
		f, err = e.startFarm()
		if err != nil {
			return nil, err
		}
		return f.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer keep()

	// Warm-up: one job of each kind.
	for _, k := range kinds {
		jt, err := e.runJob(f, k, 0, false)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := e.checkJob(jt); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(e.seed))
	var (
		mu       sync.Mutex
		order    []int
		next     int
		stopped  bool
		jobs     []*jobTimes
		firstErr error
	)
	start := time.Now()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || firstErr != nil {
			return 0, false
		}
		n := len(kinds)
		if next%n == 0 {
			if next/n >= s.farmBlocks && time.Since(start).Seconds() >= e.seconds {
				stopped = true
				return 0, false
			}
			order = append(order, rng.Perm(n)...)
		}
		i := next
		next++
		return i, true
	}
	c0 := cpuSeconds()
	var wg sync.WaitGroup
	for c := 0; c < farmClients; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				mu.Lock()
				k := kinds[order[i]]
				mu.Unlock()
				// A traced run alternates traced and untraced blocks.
				traced := e.traced() && (i/len(kinds))%2 == 0
				jt, err := e.runJob(f, k, tid, traced)
				if err == nil {
					err = e.checkJob(jt)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if jt != nil {
					jobs = append(jobs, jt)
				}
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	cpu := cpuSeconds() - c0
	if firstErr != nil {
		return nil, firstErr
	}
	var lat, untraced, traced, submit, queued, running, legs, fetches []float64
	events := 0
	for _, jt := range jobs {
		if jt.traced {
			traced = append(traced, jt.latency)
		} else {
			untraced = append(untraced, jt.latency)
		}
		lat = append(lat, jt.latency)
		submit = append(submit, jt.submit)
		queued = append(queued, jt.queued)
		running = append(running, jt.running)
		legs = append(legs, jt.legs...)
		fetches = append(fetches, jt.fetches...)
		events += jt.events
	}
	// The run's verdict time is the mean job latency. The kinds come in
	// equal shares, so the median of a run's jobs falls in the gap between
	// the second and the third kind's latencies and jumps between them
	// from run to run.
	m.wall = []float64{mean(untraced)}
	if e.traced() {
		m.tracedWall = []float64{mean(traced)}
	}
	m.cpu = []float64{cpu / float64(len(jobs))}
	m.work = 1
	if e.traced() {
		m.layers = map[string]float64{
			"service.submit_ms":         median(submit) * 1e3,
			"service.queue_wait_s":      median(queued),
			"service.run_s":             median(running),
			"service.leg_s":             median(legs),
			"service.events_per_job":    float64(events) / float64(len(jobs)),
			"service.artifact_fetch_ms": median(fetches) * 1e3,
			"service.job_p90_s":         quantile(lat, 0.9),
			"service.jobs_per_s":        float64(len(jobs)) / window,
		}
	}
	e.log("%d jobs in %.1fs (%.2f jobs/s), p50 %.3fs, p90 %.3fs", len(jobs), window,
		float64(len(jobs))/window, median(lat), quantile(lat, 0.9))
	for _, k := range kinds {
		var kl []float64
		for _, jt := range jobs {
			if jt.kind == k.name {
				kl = append(kl, jt.latency)
			}
		}
		e.log("  %-12s %3d jobs, p50 %.3fs", k.name, len(kl), median(kl))
	}
	return m, nil
}
