package service_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// newFarm builds a service + HTTP test server over a fresh store.
func newFarm(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// doJSON issues a request and decodes the JSON response.
func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, url, data)
		}
	}
	return resp.StatusCode, out
}

// waitJob polls a job's status until pred accepts it.
func waitJob(t *testing.T, svc *service.Service, id string, what string, pred func(service.Status) bool) service.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s; last status %+v", id, what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func isTerminal(st service.Status) bool {
	switch st.State {
	case service.StateCancelled, service.StateDone, service.StateFailed, service.StateError:
		return true
	}
	return false
}

const uniconsAll = `{"kind":"check","check":{"meta":{"workload":"unicons","n":2,"v":1,"quantum":8,"max_steps":262144},"mode":"all"}}`

func TestSubmitAndCompleteCheckJob(t *testing.T) {
	svc, ts := newFarm(t, service.Config{GlobalWorkers: 1, MaxActiveJobs: 1, LegSchedules: 50})
	defer svc.Stop()
	code, resp := doJSON(t, "POST", ts.URL+"/jobs", uniconsAll)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %v", code, resp)
	}
	id := resp["id"].(string)
	if !store.ValidJobID(id) {
		t.Fatalf("bad job id %q", id)
	}
	st := waitJob(t, svc, id, "terminal", isTerminal)
	// unicons N=2 Q=8 is the paper's correct configuration: the full
	// 114-schedule space is clean, split across 50-schedule legs.
	if st.State != service.StateDone || st.Schedules != 114 || st.Violations != 0 || st.Legs < 2 {
		t.Fatalf("unexpected terminal status: %+v", st)
	}
	code, got := doJSON(t, "GET", ts.URL+"/jobs/"+id, "")
	if code != http.StatusOK || got["state"] != service.StateDone {
		t.Fatalf("GET job: %d %v", code, got)
	}
	code, list := doJSON(t, "GET", ts.URL+"/jobs", "")
	if code != http.StatusOK || len(list["jobs"].([]any)) != 1 {
		t.Fatalf("GET jobs: %d %v", code, list)
	}
}

func TestSubmitRejections(t *testing.T) {
	svc, ts := newFarm(t, service.Config{})
	defer svc.Stop()
	cases := []string{
		`{not json`,
		`{"kind":"mystery"}`,
		`{"kind":"check"}`,
		`{"kind":"check","check":{"meta":{"workload":"nope"},"mode":"all"}}`,
		`{"kind":"check","check":{"meta":{"workload":"unicons","quantum":8},"mode":"mystery"}}`,
		`{"kind":"soak","soak":{"workload":"nope","seed":1}}`,
	}
	for _, body := range cases {
		code, resp := doJSON(t, "POST", ts.URL+"/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("submit %q: code %d (%v), want 400", body, code, resp)
		}
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions created jobs: %v", jobs)
	}
}

func TestUnknownJobRoutes(t *testing.T) {
	svc, ts := newFarm(t, service.Config{})
	defer svc.Stop()
	for _, route := range []struct{ method, path string }{
		{"GET", "/jobs/job-999999"},
		{"GET", "/jobs/not-an-id"},
		{"GET", "/jobs/job-999999/events"},
		{"DELETE", "/jobs/job-999999"},
	} {
		code, _ := doJSON(t, route.method, ts.URL+route.path, "")
		if code != http.StatusNotFound {
			t.Errorf("%s %s: code %d, want 404", route.method, route.path, code)
		}
	}
}

func TestCancelLifecycle(t *testing.T) {
	svc, ts := newFarm(t, service.Config{GlobalWorkers: 1, MaxActiveJobs: 1})
	defer svc.Stop()
	// An unbounded soak runs until stopped — the deterministic way to
	// have a job alive when the cancel lands.
	code, resp := doJSON(t, "POST", ts.URL+"/jobs", `{"kind":"soak","soak":{"runs":0,"seed":1}}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %v", code, resp)
	}
	id := resp["id"].(string)
	waitJob(t, svc, id, "running", func(st service.Status) bool { return st.State == service.StateRunning })
	code, _ = doJSON(t, "DELETE", ts.URL+"/jobs/"+id, "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel running job: code %d, want 202", code)
	}
	st := waitJob(t, svc, id, "cancelled", isTerminal)
	if st.State != service.StateCancelled {
		t.Fatalf("cancelled job ended as %s", st.State)
	}
	// Cancelling a terminal job conflicts.
	code, _ = doJSON(t, "DELETE", ts.URL+"/jobs/"+id, "")
	if code != http.StatusConflict {
		t.Fatalf("cancel terminal job: code %d, want 409", code)
	}
}

func TestQueueBoundsAndRejection(t *testing.T) {
	svc, ts := newFarm(t, service.Config{GlobalWorkers: 1, MaxActiveJobs: 1, QueueDepth: 1})
	defer svc.Stop()
	soak := `{"kind":"soak","soak":{"runs":0,"seed":%d}}`
	// Job 1 occupies the single run slot.
	code, resp := doJSON(t, "POST", ts.URL+"/jobs", fmt.Sprintf(soak, 1))
	if code != http.StatusCreated {
		t.Fatalf("submit 1: %d %v", code, resp)
	}
	id1 := resp["id"].(string)
	waitJob(t, svc, id1, "running", func(st service.Status) bool { return st.State == service.StateRunning })
	// Job 2 is picked up by the dispatcher, which then blocks waiting
	// for the slot; wait until it has left the queue.
	code, resp = doJSON(t, "POST", ts.URL+"/jobs", fmt.Sprintf(soak, 2))
	if code != http.StatusCreated {
		t.Fatalf("submit 2: %d %v", code, resp)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, health := doJSON(t, "GET", ts.URL+"/healthz", "")
		if code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
		if health["queued"].(float64) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never drained the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Job 3 fills the queue (the dispatcher is blocked on the slot and
	// cannot pop it); job 4 must bounce with 503.
	code, _ = doJSON(t, "POST", ts.URL+"/jobs", fmt.Sprintf(soak, 3))
	if code != http.StatusCreated {
		t.Fatalf("submit 3: %d", code)
	}
	code, resp = doJSON(t, "POST", ts.URL+"/jobs", fmt.Sprintf(soak, 4))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit over full queue: code %d (%v), want 503", code, resp)
	}
}

func TestEventsStreamAndSinceParam(t *testing.T) {
	svc, ts := newFarm(t, service.Config{GlobalWorkers: 1, MaxActiveJobs: 1, LegSchedules: 50})
	defer svc.Stop()
	_, resp := doJSON(t, "POST", ts.URL+"/jobs", uniconsAll)
	id := resp["id"].(string)
	waitJob(t, svc, id, "terminal", isTerminal)

	// A terminal job's stream is complete: the handler returns it whole
	// and closes.
	httpResp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []service.Event
	sc := bufio.NewScanner(httpResp.Body)
	for sc.Scan() {
		var e service.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d; stream must be dense from 1", i, e.Seq)
		}
	}
	last := events[len(events)-1]
	if last.Type != "state" || !strings.HasPrefix(last.Text, service.StateDone) {
		t.Fatalf("last event %+v, want terminal state", last)
	}

	// ?since resumes mid-stream.
	httpResp2, err := http.Get(fmt.Sprintf("%s/jobs/%s/events?since=%d", ts.URL, id, events[1].Seq))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp2.Body.Close()
	rest, err := io.ReadAll(httpResp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(rest)), "\n") + 1
	if lines != len(events)-2 {
		t.Fatalf("since=%d returned %d events, want %d", events[1].Seq, lines, len(events)-2)
	}

	code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/events?since=banana", "")
	if code != http.StatusBadRequest {
		t.Fatalf("bad since: code %d, want 400", code)
	}
}

func TestArtifactEndpoints(t *testing.T) {
	svc, ts := newFarm(t, service.Config{GlobalWorkers: 1, MaxActiveJobs: 1})
	defer svc.Stop()
	// A short lockcounter soak under a wait-free bound reliably yields
	// violations, whose bundles land in the content store.
	body := `{"kind":"soak","soak":{"workload":"lockcounter","n":2,"v":2,"quantum":4,"waitfree_bound":60,"runs":20,"seed":7,"keep_going":true}}`
	code, resp := doJSON(t, "POST", ts.URL+"/jobs", body)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %v", code, resp)
	}
	id := resp["id"].(string)
	st := waitJob(t, svc, id, "terminal", isTerminal)
	if st.State != service.StateFailed || len(st.Artifacts) == 0 {
		t.Fatalf("lockcounter soak: %+v, want failed with artifacts", st)
	}
	code, list := doJSON(t, "GET", ts.URL+"/artifacts", "")
	if code != http.StatusOK || len(list["artifacts"].([]any)) == 0 {
		t.Fatalf("artifact list: %d %v", code, list)
	}
	key := st.Artifacts[0]
	code, bundle := doJSON(t, "GET", ts.URL+"/artifacts/"+key, "")
	if code != http.StatusOK {
		t.Fatalf("artifact fetch: %d", code)
	}
	if meta, ok := bundle["meta"].(map[string]any); !ok || meta["workload"] != "lockcounter" {
		t.Fatalf("artifact bundle meta: %v", bundle["meta"])
	}
	code, _ = doJSON(t, "GET", ts.URL+"/artifacts/0000000000000000000000000000000000000000000000000000000000000000", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown artifact: code %d, want 404", code)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/artifacts/not-a-key", "")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed artifact key: code %d, want 400", code)
	}
}

// TestLintJobAndArtifactRoute runs a lint job over one small package
// and pins the artifact layout the spec promises: index 0 is the SARIF
// log, index 1 the derived bounds report, both served by the
// positional GET /jobs/{id}/artifacts/{n} route.
func TestLintJobAndArtifactRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks packages from source; skipped in -short")
	}
	svc, ts := newFarm(t, service.Config{GlobalWorkers: 1, MaxActiveJobs: 1})
	defer svc.Stop()
	code, resp := doJSON(t, "POST", ts.URL+"/jobs", `{"kind":"lint","lint":{"patterns":["./internal/mem"]}}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %v", code, resp)
	}
	id := resp["id"].(string)
	st := waitJob(t, svc, id, "terminal", isTerminal)
	if st.State != service.StateDone || st.Violations != 0 {
		t.Fatalf("lint job over a clean package: %+v, want done with no findings", st)
	}
	if len(st.Artifacts) != 2 {
		t.Fatalf("lint job stored %d artifacts, want 2 (sarif, bounds)", len(st.Artifacts))
	}
	code, sarif := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/artifacts/0", "")
	if code != http.StatusOK || sarif["version"] != "2.1.0" {
		t.Fatalf("artifact 0: %d %v, want a SARIF 2.1.0 log", code, sarif)
	}
	code, bounds := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/artifacts/1", "")
	if code != http.StatusOK {
		t.Fatalf("artifact 1: %d", code)
	}
	if _, ok := bounds["ops"]; !ok {
		t.Fatalf("artifact 1 is not a bounds report: %v", bounds)
	}
	// Route error grammar: out of range is 404, malformed index is 400,
	// unknown job is 404.
	code, _ = doJSON(t, "GET", ts.URL+"/jobs/"+id+"/artifacts/2", "")
	if code != http.StatusNotFound {
		t.Fatalf("artifact out of range: code %d, want 404", code)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/jobs/"+id+"/artifacts/banana", "")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed artifact index: code %d, want 400", code)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/jobs/job-999999/artifacts/0", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job artifact: code %d, want 404", code)
	}
}

// TestMeasureJobEndToEnd drives a measurement job through the farm:
// jobspec submit → service runner → stored progress-distribution
// artifact. The lockcounter negative control under a declared bound
// exceeds it (counted in Violations) but still finishes Done — a
// measurement is an observation, not a check.
func TestMeasureJobEndToEnd(t *testing.T) {
	svc, ts := newFarm(t, service.Config{GlobalWorkers: 2, MaxActiveJobs: 1})
	defer svc.Stop()
	body := `{"kind":"measure","measure":{"meta":{"workload":"lockcounter","n":2,"v":2,"quantum":2,"max_steps":2000,"waitfree_bound":200},"sched_model":"uniform:seed=1","replays":200}}`
	code, resp := doJSON(t, "POST", ts.URL+"/jobs", body)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %v", code, resp)
	}
	id := resp["id"].(string)
	st := waitJob(t, svc, id, "terminal", isTerminal)
	if st.State != service.StateDone {
		t.Fatalf("measure job: %+v, want done despite over-bound runs", st)
	}
	if st.Violations == 0 {
		t.Fatalf("lockcounter under bound 200 recorded no over-bound runs: %+v", st)
	}
	if len(st.Artifacts) != 1 {
		t.Fatalf("measure job stored %d artifacts, want 1 (progress report)", len(st.Artifacts))
	}
	code, prog := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/artifacts/0", "")
	if code != http.StatusOK {
		t.Fatalf("artifact 0: %d", code)
	}
	if runs, ok := prog["runs"].(float64); !ok || int(runs) != 200 {
		t.Fatalf("progress report runs = %v, want 200 (report: %v)", prog["runs"], prog)
	}
	for _, field := range []string{"samples", "p50", "p99", "max", "hist"} {
		if _, ok := prog[field]; !ok {
			t.Errorf("progress report missing %q: %v", field, prog)
		}
	}
	if censored, ok := prog["censored"].(float64); !ok || censored == 0 {
		t.Errorf("lockcounter measurement censored = %v, want > 0 (starved invocations in flight)", prog["censored"])
	}
	// A malformed model spec is rejected at submit time, not at run time.
	code, _ = doJSON(t, "POST", ts.URL+"/jobs", `{"kind":"measure","measure":{"meta":{"workload":"unicons","n":2,"quantum":2},"sched_model":"markov:warp=1"}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad model spec accepted: code %d, want 400", code)
	}
}

func TestHealthzAndShutdownRejection(t *testing.T) {
	svc, ts := newFarm(t, service.Config{})
	code, health := doJSON(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz: %d %v", code, health)
	}
	svc.Stop()
	code, _ = doJSON(t, "POST", ts.URL+"/jobs", uniconsAll)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after Stop: code %d, want 503", code)
	}
}
