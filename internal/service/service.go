// Package service is the checker farm: a long-running job service over
// the shared exploration engine. Jobs are serializable workload-registry
// references (internal/service/jobspec) submitted over REST
// (internal/service/http.go), queued in a bounded queue, and executed
// by a multi-tenant scheduler that splits a global worker budget fairly
// across concurrently running jobs. Everything a job does is persisted
// in an internal/store artifact store — spec, status, per-leg progress,
// campaign state, content-addressed repro bundles — so the server can
// be killed at any moment and resume every interrupted job on the next
// boot.
//
// Durability model. Soak jobs ride internal/campaign's WAL +
// checkpoint machinery unchanged. Check jobs run in legs, whatever the
// mode and reduction: each leg explores at most Config.LegSchedules
// schedules, exports the unexplored frontier, and the cumulative result
// + frontier are persisted atomically before the next leg starts. A
// crash therefore loses at most one leg, and the lost leg replays on
// resume because a frontier pins the unexplored subtrees, or the rest
// of a fuzz seed range. Plain, sleep-set and fuzz legs cover exactly the
// uninterrupted schedule set; a fingerprint-pruned leg starts with an
// empty cache, so it keeps the verdict but may run more schedules
// (DESIGN.md §10). Measure and lint jobs run as one unit.
//
// Scheduling model. The service never grows the engine's worker count:
// Config.GlobalWorkers is the whole budget, each running job gets
// max(1, GlobalWorkers/MaxActiveJobs) workers capped by the job's own
// Parallelism, and at most MaxActiveJobs jobs run at once — so N
// concurrent tenants share the machine instead of oversubscribing it.
// Timing (queues, goroutines, HTTP) decides only WHEN a job runs;
// WHAT a run computes stays a deterministic function of the job spec,
// which is why the service sits outside the engine's replay paths.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/check"
	"repro/internal/service/jobspec"
	"repro/internal/store"
)

// Job states. queued and running are live; interrupted means the
// server stopped (or died) while the job ran and a future boot will
// resume it; cancelled, done, failed, and error are terminal. failed
// means the job completed and found violations — an infrastructure
// problem is error, never failed.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateInterrupted = "interrupted"
	StateCancelled   = "cancelled"
	StateDone        = "done"
	StateFailed      = "failed"
	StateError       = "error"
)

// terminal reports whether a job state is final (no resume on boot).
func terminal(state string) bool {
	switch state {
	case StateCancelled, StateDone, StateFailed, StateError:
		return true
	}
	return false
}

// Status is a job's externally visible record, persisted as
// status.json and served by GET /jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Detail is a one-line human summary (the jobspec description, then
	// the terminal verdict).
	Detail string `json:"detail,omitempty"`
	// Workers is the worker allocation the scheduler granted.
	Workers int `json:"workers,omitempty"`
	// Resumes counts boots that re-enqueued this job.
	Resumes int `json:"resumes,omitempty"`
	// Legs counts persisted exploration legs (check jobs).
	Legs int `json:"legs,omitempty"`
	// Schedules is the cumulative executed-schedule count (check jobs).
	Schedules int `json:"schedules,omitempty"`
	// Runs/Crashes/TimedOut are campaign counters (soak jobs).
	Runs     int64 `json:"runs,omitempty"`
	Crashes  int64 `json:"crashes,omitempty"`
	TimedOut int64 `json:"timed_out,omitempty"`
	// Violations is the total violations found so far.
	Violations int `json:"violations,omitempty"`
	// Artifacts are content-store keys of this job's repro bundles
	// (GET /artifacts/{key}).
	Artifacts []string `json:"artifacts,omitempty"`
	// Error is the infrastructure error that ended the job (state
	// error).
	Error string `json:"error,omitempty"`
}

// ViolationRecord is the persisted form of one check-job violation
// (progress.json); Err is a string because the engine's error values
// do not round-trip JSON.
type ViolationRecord struct {
	Schedule  string `json:"schedule"`
	Err       string `json:"err"`
	Decisions []int  `json:"decisions,omitempty"`
	// Artifact is the content-store key of the violation's bundle.
	Artifact string `json:"artifact,omitempty"`
}

// checkProgress is a check job's cumulative result, persisted after
// every leg. Frontier nil + Done means the exploration ran to
// completion; Frontier non-nil means resume from it. Violations holds at
// most the exploration's violation cap (check.Options.ViolationCap)
// over all legs; ViolationsTotal counts them all.
type checkProgress struct {
	Legs            int               `json:"legs"`
	Schedules       int               `json:"schedules"`
	ViolationsTotal int               `json:"violations_total"`
	Aliased         int               `json:"aliased,omitempty"`
	StepLimited     int               `json:"step_limited,omitempty"`
	TimedOutRuns    int               `json:"timed_out_runs,omitempty"`
	Violations      []ViolationRecord `json:"violations,omitempty"`
	Degradations    []string          `json:"degradations,omitempty"`
	Done            bool              `json:"done"`
	Frontier        *check.Frontier   `json:"frontier,omitempty"`
}

// Config parameterizes a Service.
type Config struct {
	// Store is the persistent artifact store (required).
	Store *store.Store
	// GlobalWorkers is the total exploration-worker budget shared by
	// all running jobs (0 = all CPUs).
	GlobalWorkers int
	// MaxActiveJobs caps concurrently running jobs (0 = 2).
	MaxActiveJobs int
	// QueueDepth bounds the submit queue; a full queue rejects new jobs
	// (HTTP 503) instead of buffering without bound (0 = 16).
	QueueDepth int
	// LegSchedules is the per-leg schedule cap for check jobs — the
	// durability granularity: a crash loses at most this many schedules
	// of progress (0 = 2000).
	LegSchedules int
	// Log, if non-nil, receives server-side operational messages.
	Log func(string)
}

func (c Config) globalWorkers() int {
	if c.GlobalWorkers <= 0 {
		return runtime.NumCPU()
	}
	return c.GlobalWorkers
}

func (c Config) maxActiveJobs() int {
	if c.MaxActiveJobs <= 0 {
		return 2
	}
	return c.MaxActiveJobs
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 16
	}
	return c.QueueDepth
}

func (c Config) legSchedules() int {
	if c.LegSchedules <= 0 {
		return 2000
	}
	return c.LegSchedules
}

// fairShare is the per-job worker allocation: an equal split of the
// global budget across the maximum number of concurrently running
// jobs, never below one, never above the job's own Parallelism cap.
// The split is fixed at admission (not rebalanced mid-run) so a job's
// execution, given its spec, does not depend on what its neighbors do.
func (c Config) fairShare(jobCap int) int {
	share := c.globalWorkers() / c.maxActiveJobs()
	if share < 1 {
		share = 1
	}
	if jobCap > 0 && jobCap < share {
		share = jobCap
	}
	return share
}

// job is the in-memory half of one job: live status plus the control
// channels the scheduler uses to run, cancel, and observe it.
type job struct {
	id     string
	spec   *jobspec.Spec
	events *eventLog

	cancelOnce sync.Once
	cancelled  chan struct{} // closed by DELETE /jobs/{id}

	mu     sync.Mutex
	status Status
}

// setState transitions the job's state under its lock and returns the
// updated snapshot.
func (j *job) setState(state, detail string) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.State = state
	if detail != "" {
		j.status.Detail = detail
	}
	return j.status
}

// snapshot returns the job's current status.
func (j *job) snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// cancel requests cancellation (idempotent).
func (j *job) cancel() {
	j.cancelOnce.Do(func() { close(j.cancelled) })
}

func (j *job) isCancelled() bool {
	select {
	case <-j.cancelled:
		return true
	default:
		return false
	}
}

// Errors the submission path returns; the HTTP layer maps them to
// status codes.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 503).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrStopping rejects a submission during shutdown (HTTP 503).
	ErrStopping = errors.New("service: shutting down")
	// ErrUnknownJob names a job ID with no store entry (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrTerminal rejects cancelling an already-terminal job (HTTP 409).
	ErrTerminal = errors.New("service: job already terminal")
)

// Service is the running job server: a bounded queue, a dispatcher, a
// slot-limited pool of job runners, and the store they all persist
// into.
type Service struct {
	cfg Config
	st  *store.Store

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	jobs     map[string]*job
	stopping bool

	slots    chan struct{} // MaxActiveJobs tokens
	shutdown chan struct{} // closed by Stop/Kill: interrupt running jobs
	killed   chan struct{} // closed by Kill: suppress all further store writes
	wg       sync.WaitGroup
}

// New opens a service over st's contents: every persisted job is
// loaded, and jobs that were queued, running, or interrupted when the
// previous process died are re-enqueued — running/interrupted ones
// with Resumes bumped — so a kill at any point costs at most one
// durability interval of work. Call Serve… via Handler and stop with
// Stop (graceful) — Kill is the crash-simulation hook for tests.
func New(cfg Config) (*Service, error) {
	if cfg.Store == nil {
		return nil, errors.New("service: Config.Store is required")
	}
	s := &Service{
		cfg:      cfg,
		st:       cfg.Store,
		jobs:     map[string]*job{},
		slots:    make(chan struct{}, cfg.maxActiveJobs()),
		shutdown: make(chan struct{}),
		killed:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	//repro:allow service the dispatcher decides when queued jobs start, never what they compute
	go s.dispatch()
	return s, nil
}

// loadJobs scans the store and rebuilds the in-memory job table,
// re-enqueueing every non-terminal job.
func (s *Service) loadJobs() error {
	ids, err := s.st.JobIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		j, err := s.loadJob(id)
		if err != nil {
			return err
		}
		if j == nil {
			// A submission killed before its spec landed: its client got
			// an error, not an ID, so there is no job to resume.
			s.logf("skipping %s: no spec.json", id)
			continue
		}
		s.jobs[id] = j
		st := j.snapshot()
		if terminal(st.State) {
			j.events.close()
			continue
		}
		if st.State != StateQueued {
			j.mu.Lock()
			j.status.Resumes++
			j.status.State = StateQueued
			j.mu.Unlock()
			s.logf("resuming %s (kind %s, resume #%d)", id, st.Kind, st.Resumes+1)
		}
		s.persist(j)
		j.events.append("state", "queued (boot)")
		s.queue = append(s.queue, j)
	}
	return nil
}

// loadJob reads one job's spec and status back from the store; nil
// when the job directory holds no spec.
func (s *Service) loadJob(id string) (*job, error) {
	specData, err := s.st.ReadJobFile(id, "spec.json")
	if err != nil || specData == nil {
		return nil, err
	}
	spec, err := jobspec.Parse(specData)
	if err != nil {
		return nil, fmt.Errorf("service: job %s: %w", id, err)
	}
	j := &job{id: id, spec: spec, events: newEventLog(), cancelled: make(chan struct{})}
	statusData, err := s.st.ReadJobFile(id, "status.json")
	if err != nil {
		return nil, err
	}
	if statusData == nil {
		j.status = Status{ID: id, Kind: spec.Kind, State: StateQueued, Detail: spec.Describe()}
	} else if err := json.Unmarshal(statusData, &j.status); err != nil {
		return nil, fmt.Errorf("service: job %s: decode status: %w", id, err)
	}
	return j, nil
}

// Submit validates and enqueues a new job, returning its ID.
func (s *Service) Submit(spec *jobspec.Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	specData, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return "", fmt.Errorf("service: encode spec: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return "", ErrStopping
	}
	if len(s.queue) >= s.cfg.queueDepth() {
		return "", ErrQueueFull
	}
	id, err := s.st.CreateJob()
	if err != nil {
		return "", err
	}
	j := &job{id: id, spec: spec, events: newEventLog(), cancelled: make(chan struct{})}
	j.status = Status{ID: id, Kind: spec.Kind, State: StateQueued, Detail: spec.Describe()}
	if err := s.st.WriteJobFile(id, "spec.json", append(specData, '\n')); err != nil {
		// The client gets an error, not an ID, so no boot may run the
		// job; a write can fail after its rename has landed the spec.
		if rerr := s.st.RemoveJob(id); rerr != nil {
			s.logf("remove failed submission %s: %v", id, rerr)
		}
		return "", err
	}
	s.persist(j)
	s.jobs[id] = j
	s.queue = append(s.queue, j)
	j.events.append("state", "queued")
	s.cond.Signal()
	return id, nil
}

// Job returns a job's status by ID.
func (s *Service) Job(id string) (Status, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return Status{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// Jobs returns every job's status, ordered by ID.
func (s *Service) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.jobs[id].snapshot())
	}
	return out
}

// Cancel requests cancellation of a queued or running job. A queued
// job is removed from the queue and goes terminal immediately; a
// running job is interrupted at its next durability boundary and then
// goes terminal with its progress checkpointed.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	st := j.snapshot()
	if terminal(st.State) {
		s.mu.Unlock()
		return ErrTerminal
	}
	if st.State == StateQueued {
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	j.cancel()
	if st.State == StateQueued {
		s.finish(j, StateCancelled, "cancelled while queued", nil)
	}
	return nil
}

// Events returns a job's event log for streaming.
func (s *Service) Events(id string) (*eventLog, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrUnknownJob
	}
	return j.events, nil
}

// Stop shuts the service down gracefully: no new jobs are accepted,
// queued jobs stay queued (persisted, resumed next boot), and every
// running job is interrupted at its next durability boundary and
// checkpointed as interrupted.
func (s *Service) Stop() {
	s.mu.Lock()
	alreadyStopping := s.stopping
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if !alreadyStopping {
		close(s.shutdown)
	}
	s.wg.Wait()
}

// Kill simulates a hard kill (SIGKILL) for tests: running jobs are
// interrupted AND every subsequent store write of the service's own is
// suppressed, so the on-disk state after Kill is exactly the state some
// real kill could have left — the most recent atomically persisted
// checkpoint of every job, with no graceful finalization on top. A
// running soak job's campaign stops gracefully and still writes its
// final checkpoint; tests that need that write lost too fail it through
// durable.SetFault.
func (s *Service) Kill() {
	s.mu.Lock()
	alreadyStopping := s.stopping
	s.stopping = true
	select {
	case <-s.killed:
	default:
		close(s.killed)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if !alreadyStopping {
		close(s.shutdown)
	}
	s.wg.Wait()
}

func (s *Service) isKilled() bool {
	select {
	case <-s.killed:
		return true
	default:
		return false
	}
}

// stopRequested reports whether graceful shutdown has begun.
func (s *Service) stopRequested() bool {
	select {
	case <-s.shutdown:
		return true
	default:
		return false
	}
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(fmt.Sprintf(format, args...))
	}
}

// persist writes a job's status.json — unless a simulated kill is in
// effect, in which case the disk keeps whatever was last persisted.
func (s *Service) persist(j *job) {
	if s.isKilled() {
		return
	}
	st := j.snapshot()
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		s.logf("encode status %s: %v", j.id, err)
		return
	}
	if err := s.st.WriteJobFile(j.id, "status.json", append(data, '\n')); err != nil {
		s.logf("persist %s: %v", j.id, err)
	}
}

// finish drives a job to a terminal (or interrupted) state, persists
// it, and closes its event stream.
func (s *Service) finish(j *job, state, detail string, err error) {
	j.mu.Lock()
	j.status.State = state
	if detail != "" {
		j.status.Detail = detail
	}
	if err != nil {
		j.status.Error = err.Error()
	}
	j.mu.Unlock()
	s.persist(j)
	j.events.append("state", state+": "+detail)
	if terminal(state) || state == StateInterrupted {
		j.events.close()
	}
}

// dispatch moves jobs from the queue into runner goroutines as slots
// free up. It exits on shutdown; queued jobs stay queued on disk.
func (s *Service) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		select {
		case s.slots <- struct{}{}:
		case <-s.shutdown:
			// Shutdown while waiting for a slot: j stays queued on disk
			// and will be re-enqueued next boot.
			return
		}
		s.wg.Add(1)
		//repro:allow service job runners decide when work executes; each job's output is a function of its spec
		go func(j *job) {
			defer s.wg.Done()
			defer func() { <-s.slots }()
			s.run(j)
		}(j)
	}
}

// run executes one job start to finish (or to interruption).
func (s *Service) run(j *job) {
	if j.isCancelled() {
		s.finish(j, StateCancelled, "cancelled before start", nil)
		return
	}
	var workers int
	switch j.spec.Kind {
	case jobspec.KindCheck:
		workers = s.cfg.fairShare(j.spec.Check.Parallelism)
	case jobspec.KindLint:
		workers = s.cfg.fairShare(j.spec.Lint.Parallelism)
	case jobspec.KindMeasure:
		workers = s.cfg.fairShare(j.spec.Measure.Parallelism)
	default:
		workers = s.cfg.fairShare(j.spec.Soak.Parallelism)
	}
	j.mu.Lock()
	j.status.State = StateRunning
	j.status.Workers = workers
	j.mu.Unlock()
	s.persist(j)
	j.events.append("state", fmt.Sprintf("running with %d workers", workers))

	switch j.spec.Kind {
	case jobspec.KindCheck:
		s.runCheck(j, workers)
	case jobspec.KindLint:
		s.runLint(j, workers)
	case jobspec.KindMeasure:
		s.runMeasure(j, workers)
	default:
		s.runSoak(j, workers)
	}
}

// interruptionState maps how a run ended early to the job state it
// should persist: explicit cancel beats shutdown.
func (s *Service) interruptionState(j *job) (string, string) {
	if j.isCancelled() {
		return StateCancelled, "cancelled; progress checkpointed"
	}
	return StateInterrupted, "interrupted by shutdown; will resume on next boot"
}

// watchCancel returns a context cancelled when the job is cancelled,
// the service shuts down, or the returned stop func runs.
func (s *Service) watchCancel(j *job) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	//repro:allow service watches for cancel/shutdown to stop a run at a schedule boundary; affects when a job stops, not its per-schedule results
	go func() {
		select {
		case <-j.cancelled:
		case <-s.shutdown:
		case <-done:
		}
		cancel()
	}()
	return ctx, func() { close(done); cancel() }
}

// runCheck executes a check job as persisted legs (see the package
// comment).
func (s *Service) runCheck(j *job, workers int) {
	spec := j.spec.Check
	build, err := spec.Builder()
	if err != nil {
		s.finish(j, StateError, "builder", err)
		return
	}
	opts, err := spec.Options()
	if err != nil {
		s.finish(j, StateError, "options", err)
		return
	}
	opts.Parallelism = workers
	opts.CollectDecisions = true
	opts.Progress = func(info check.ProgressInfo) {
		j.events.append("progress", fmt.Sprintf("%d schedules, %d violations", info.Schedules, info.Violations))
	}
	opts.ProgressEvery = 500
	opts.ExportFrontier = true

	prog := &checkProgress{}
	if data, err := s.st.ReadJobFile(j.id, "progress.json"); err != nil {
		s.finish(j, StateError, "read progress", err)
		return
	} else if data != nil {
		if err := json.Unmarshal(data, prog); err != nil {
			s.finish(j, StateError, "decode progress", err)
			return
		}
	}
	if prog.Done {
		s.finishCheck(j, prog)
		return
	}
	if prog.Legs > 0 {
		j.events.append("leg", fmt.Sprintf("resuming at leg %d: %d schedules done, %d frontier items",
			prog.Legs, prog.Schedules, frontierLen(prog.Frontier)))
	}
	limit := opts.ViolationCap()
	for {
		legOpts := opts
		legOpts.SeedFrontier = prog.Frontier
		legOpts.MaxSchedules = s.cfg.legSchedules()
		// The job records at most limit violations over all its legs, so
		// a leg records only the room left. Once the record is full a leg
		// just counts: its one recorded violation is dropped by foldLeg,
		// and it skips forensics.
		if room := limit - len(prog.Violations); room > 0 {
			legOpts.MaxViolations = room
		} else {
			legOpts.MaxViolations = 1
			legOpts.ArtifactMeta, legOpts.Minimize, legOpts.CollectDecisions = nil, false, false
		}
		if spec.MaxSchedules > 0 {
			remaining := spec.MaxSchedules - prog.Schedules
			if remaining <= 0 {
				prog.Done = true
				prog.Frontier = nil
				s.persistProgress(j, prog)
				s.finishCheck(j, prog)
				return
			}
			if remaining < legOpts.MaxSchedules {
				legOpts.MaxSchedules = remaining
			}
		}
		ctx, stopWatch := s.watchCancel(j)
		legOpts.Context = ctx
		res := spec.Run(build, legOpts)
		stopWatch()
		s.foldLeg(j, prog, res, limit)
		interrupted := res.Interrupted
		exhausted := res.Frontier == nil || res.Frontier.Empty()
		capped := spec.MaxSchedules > 0 && prog.Schedules >= spec.MaxSchedules
		stopFirst := spec.StopAtFirst && prog.ViolationsTotal > 0
		if exhausted || capped || stopFirst {
			prog.Done = true
			prog.Frontier = nil
		}
		s.persistProgress(j, prog)
		j.events.append("leg", fmt.Sprintf("leg %d: %d schedules total, %d violations, %d frontier items",
			prog.Legs, prog.Schedules, prog.ViolationsTotal, frontierLen(prog.Frontier)))
		if prog.Done {
			s.finishCheck(j, prog)
			return
		}
		if interrupted {
			state, detail := s.interruptionState(j)
			s.finish(j, state, detail, nil)
			return
		}
	}
}

func frontierLen(f *check.Frontier) int {
	if f == nil {
		return 0
	}
	return len(f.Items)
}

// foldLeg merges one leg's Result into the cumulative progress,
// recording its violations up to limit over the whole job and importing
// their bundles into the content store as it goes, and mirrors the
// counters into the job status.
func (s *Service) foldLeg(j *job, prog *checkProgress, res *check.Result, limit int) {
	prog.Legs++
	prog.Schedules += res.Schedules
	prog.ViolationsTotal += res.ViolationsTotal
	prog.Aliased += res.Aliased
	prog.StepLimited += res.StepLimited
	prog.TimedOutRuns += res.TimedOutRuns
	prog.Degradations = append(prog.Degradations, res.Degradations...)
	prog.Frontier = res.Frontier
	room := max(limit-len(prog.Violations), 0)
	for i := range res.Violations[:min(len(res.Violations), room)] {
		v := &res.Violations[i]
		rec := ViolationRecord{Schedule: v.Schedule, Decisions: v.Decisions}
		if v.Err != nil {
			rec.Err = v.Err.Error()
		}
		if v.Artifact != nil && !s.isKilled() {
			key, err := s.st.PutArtifact(v.Artifact)
			if err != nil {
				s.logf("%s: store artifact: %v", j.id, err)
			} else {
				rec.Artifact = key
				j.events.append("artifact", key)
			}
		}
		prog.Violations = append(prog.Violations, rec)
		j.events.append("violation", rec.Schedule+": "+rec.Err)
	}
	mirrorProgress(j, prog)
}

// mirrorProgress copies a check job's cumulative counters into its
// status.
func mirrorProgress(j *job, prog *checkProgress) {
	j.mu.Lock()
	j.status.Legs = prog.Legs
	j.status.Schedules = prog.Schedules
	j.status.Violations = prog.ViolationsTotal
	j.status.Artifacts = artifactKeys(prog.Violations)
	j.mu.Unlock()
}

func artifactKeys(viols []ViolationRecord) []string {
	var keys []string
	seen := map[string]bool{}
	for _, v := range viols {
		if v.Artifact != "" && !seen[v.Artifact] {
			seen[v.Artifact] = true
			keys = append(keys, v.Artifact)
		}
	}
	return keys
}

// persistProgress writes progress.json (suppressed after Kill).
func (s *Service) persistProgress(j *job, prog *checkProgress) {
	if s.isKilled() {
		return
	}
	data, err := json.MarshalIndent(prog, "", "  ")
	if err != nil {
		s.logf("encode progress %s: %v", j.id, err)
		return
	}
	if err := s.st.WriteJobFile(j.id, "progress.json", append(data, '\n')); err != nil {
		s.logf("persist progress %s: %v", j.id, err)
	}
	s.persist(j)
}

// finishCheck maps a completed check job's cumulative result to its
// terminal state. The counters come from prog: a kill between the last
// leg's progress.json and status.json writes leaves a status that lags
// the finished progress it boots into.
func (s *Service) finishCheck(j *job, prog *checkProgress) {
	mirrorProgress(j, prog)
	if prog.ViolationsTotal > 0 {
		s.finish(j, StateFailed,
			fmt.Sprintf("%d violations in %d schedules (%d legs)", prog.ViolationsTotal, prog.Schedules, prog.Legs), nil)
		return
	}
	s.finish(j, StateDone,
		fmt.Sprintf("no violations in %d schedules (%d legs)", prog.Schedules, prog.Legs), nil)
}

// runSoak executes a soak job on internal/campaign's durable runner:
// the campaign's own WAL/checkpoint machinery provides the durability,
// the service just points it at the job's state directory and imports
// the resulting bundles.
func (s *Service) runSoak(j *job, workers int) {
	spec := j.spec.Soak
	stateDir, err := s.st.StateDir(j.id)
	if err != nil {
		s.finish(j, StateError, "state dir", err)
		return
	}
	cfg := spec.Config()
	cfg.Parallel = workers
	cfg.StateDir = stateDir
	cfg.Log = func(msg string) { j.events.append("log", msg) }
	cfg.Progress = func(info campaign.ProgressInfo) {
		j.events.append("progress", fmt.Sprintf("%d runs, %d violations, %d crashes", info.Runs, info.Violations, info.Crashes))
		j.mu.Lock()
		j.status.Runs = info.Runs
		j.status.Violations = info.Violations
		j.status.Crashes = info.Crashes
		j.status.TimedOut = info.TimedOut
		j.mu.Unlock()
	}
	stop := make(chan struct{})
	stopped := make(chan struct{})
	//repro:allow service relays cancel/shutdown into the campaign's graceful-stop channel; stop timing never changes run outcomes
	go func() {
		select {
		case <-j.cancelled:
			close(stop)
		case <-s.shutdown:
			close(stop)
		case <-stopped:
		}
	}()
	cfg.Stop = stop
	res, err := campaign.Run(cfg)
	close(stopped)
	if err != nil {
		s.finish(j, StateError, "campaign", err)
		return
	}
	state := res.State
	var keys []string
	for i := range state.Violations {
		v := &state.Violations[i]
		if v.Artifact == "" || s.isKilled() {
			continue
		}
		key, err := s.st.ImportArtifact(v.Artifact)
		if err != nil {
			s.logf("%s: import artifact %s: %v", j.id, v.Artifact, err)
			continue
		}
		keys = append(keys, key)
		j.events.append("artifact", key)
	}
	j.mu.Lock()
	j.status.Runs = state.Runs
	j.status.Crashes = state.Crashes
	j.status.TimedOut = state.TimedOut
	j.status.Violations = len(state.Violations)
	j.status.Artifacts = keys
	j.mu.Unlock()
	switch {
	case res.Failed() && !spec.KeepGoing:
		s.finish(j, StateFailed,
			fmt.Sprintf("violation at run %d of %d completed", state.Violations[0].Idx, state.Runs), nil)
	case j.isCancelled():
		s.finish(j, StateCancelled, "cancelled; progress checkpointed", nil)
	case res.Interrupted && s.stopRequested():
		s.finish(j, StateInterrupted, "interrupted by shutdown; will resume on next boot", nil)
	case len(state.Violations) > 0:
		s.finish(j, StateFailed,
			fmt.Sprintf("%d violations in %d runs", len(state.Violations), state.Runs), nil)
	default:
		s.finish(j, StateDone,
			fmt.Sprintf("%d runs clean, %d crashes injected", state.Runs, state.Crashes), nil)
	}
}

// runLint executes a lint job: one reprolint driver run over the
// server's own source tree. The run is a single non-durable unit (the
// driver's incremental cache, shared by every lint job under the
// store's reprolint-cache directory, makes a post-crash re-run cheap
// anyway); findings map to StateFailed the same way violations do, and
// the SARIF log plus the derived bounds report are stored as the job's
// artifacts — index 0 and 1 — so GET /jobs/{id}/artifacts/{n} serves
// them to CI and code scanners.
func (s *Service) runLint(j *job, workers int) {
	spec := j.spec.Lint
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		s.finish(j, StateError, "module root", err)
		return
	}
	res, err := analysis.RunDriver(analysis.DriverOptions{
		Root:        root,
		Patterns:    spec.ResolvedPatterns(),
		Tests:       !spec.NoTests,
		Cache:       true,
		CacheDir:    filepath.Join(s.st.Root(), "reprolint-cache"),
		Parallelism: workers,
	})
	if err != nil {
		s.finish(j, StateError, "reprolint", err)
		return
	}
	if j.isCancelled() {
		s.finish(j, StateCancelled, "cancelled; lint runs as one unit, results discarded", nil)
		return
	}
	var sarif, bounds bytes.Buffer
	if err := analysis.WriteDiagnostics(&sarif, "sarif", res.Diags, root); err != nil {
		s.finish(j, StateError, "encode sarif", err)
		return
	}
	if err := analysis.WriteBoundsReport(&bounds, res.Bounds); err != nil {
		s.finish(j, StateError, "encode bounds report", err)
		return
	}
	var keys []string
	for _, blob := range [][]byte{sarif.Bytes(), bounds.Bytes()} {
		if s.isKilled() {
			break
		}
		key, err := s.st.PutRawArtifact(blob)
		if err != nil {
			s.finish(j, StateError, "store artifact", err)
			return
		}
		keys = append(keys, key)
		j.events.append("artifact", key)
	}
	j.mu.Lock()
	j.status.Violations = len(res.Diags)
	j.status.Artifacts = keys
	j.mu.Unlock()
	j.events.append("progress", fmt.Sprintf("%d packages analyzed (%d dirs incl. deps, %d cache hits), %d findings",
		res.Packages, res.Analyzed, res.CacheHits, len(res.Diags)))
	if len(res.Diags) > 0 {
		s.finish(j, StateFailed,
			fmt.Sprintf("%d findings in %d packages", len(res.Diags), res.Packages), nil)
		return
	}
	s.finish(j, StateDone,
		fmt.Sprintf("clean: %d packages, %d bounded operations derived", res.Packages, len(res.Bounds.Ops)), nil)
}

// runMeasure executes a measurement job: a Measure-mode fuzz campaign
// under the spec's scheduler model, producing a progress-distribution
// report (check.ProgressStats) stored as the job's single artifact. A
// measurement is an observation, not a pass/fail check: runs exceeding
// the declared bound are counted in Violations but leave the job Done
// — a negative control exceeding its bound is the measurement working.
// It runs as one unit: interruption discards progress (the
// distribution is only meaningful over the full replay count) and the
// job restarts on resume.
func (s *Service) runMeasure(j *job, workers int) {
	spec := j.spec.Measure
	build, err := spec.Builder()
	if err != nil {
		s.finish(j, StateError, "builder", err)
		return
	}
	opts, err := spec.Options()
	if err != nil {
		s.finish(j, StateError, "options", err)
		return
	}
	opts.Parallelism = workers
	opts.Progress = func(info check.ProgressInfo) {
		j.events.append("progress", fmt.Sprintf("%d replays, %d over bound", info.Schedules, info.Violations))
	}
	opts.ProgressEvery = 500
	ctx, stop := s.watchCancel(j)
	defer stop()
	opts.Context = ctx

	res := spec.Run(build, opts)
	if res.Interrupted {
		state, detail := s.interruptionState(j)
		if state == StateInterrupted {
			detail = "interrupted by shutdown; measurement jobs restart from scratch"
		}
		s.finish(j, state, detail, nil)
		return
	}
	blob, err := json.MarshalIndent(res.Progress, "", "  ")
	if err != nil {
		s.finish(j, StateError, "encode progress report", err)
		return
	}
	var keys []string
	if !s.isKilled() {
		key, err := s.st.PutRawArtifact(append(blob, '\n'))
		if err != nil {
			s.finish(j, StateError, "store artifact", err)
			return
		}
		keys = append(keys, key)
		j.events.append("artifact", key)
	}
	j.mu.Lock()
	j.status.Violations = res.ViolationsTotal
	j.status.Artifacts = keys
	j.mu.Unlock()
	p := res.Progress
	s.finish(j, StateDone,
		fmt.Sprintf("%d replays under %s: p50=%d p99=%d max=%d (%d censored, %d over bound)",
			res.Schedules, spec.ResolvedModel(), p.P50, p.P99, p.Max, p.Censored, res.ViolationsTotal), nil)
}
