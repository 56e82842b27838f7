package campaign

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/sched"
)

// Config parameterizes one campaign.
type Config struct {
	// Runs is the total number of runs the campaign executes (indices
	// [0, Runs)). 0 means unbounded: run until Stop fires.
	Runs int64
	// BaseSeed and CrashSeed are the campaign identity: every run's
	// workload, schedule, and crash plan derive deterministically from
	// them and the run index.
	BaseSeed  int64
	CrashSeed int64
	// MaxCrashes caps injected crash-stop faults per run.
	MaxCrashes int
	// Workload, when non-empty and not "soakmix", pins every run to one
	// registered workload family with the parameters below
	// (artifact.SeededMeta): only the seeded schedule and crash plan
	// vary with the run index. Empty selects the classic randomized
	// soakmix sweep (artifact.SoakMeta). Part of the campaign identity.
	Workload string
	// N, V, Quantum and WaitFreeBound parameterize a fixed Workload
	// (ignored for soakmix).
	N, V, Quantum int
	WaitFreeBound int64
	// SchedModel, when non-nil, names the registered scheduler model
	// the runs draw their schedules from (nil = uniform): every derived
	// run replays the model with its per-run derived seed (the
	// artifact.Sched.Seed override), so the campaign stays a
	// deterministic function of (identity, index). Use simple
	// (non-wrapper) specs here — crash injection comes from
	// CrashSeed/MaxCrashes, which compose with the model; a wrapper
	// spec's inner seeds would not vary per run. Part of the campaign
	// identity (canonical spec string).
	SchedModel *sched.ModelSpec
	// Parallel is the number of concurrent workers (0 = all CPUs).
	Parallel int
	// Derive maps a run index to the bundle to replay. Nil selects the
	// standard soak derivation, artifact.SoakMeta(BaseSeed, CrashSeed,
	// idx, MaxCrashes). A custom Derive must be deterministic in idx —
	// the whole durability story rests on re-deriving the same run.
	Derive func(idx int64) (artifact.Meta, artifact.Sched)
	// StateDir, when non-empty, makes the campaign durable: progress is
	// journaled and checkpointed there, and a fresh Run over the same
	// directory resumes instead of restarting. Empty = ephemeral.
	StateDir string
	// ArtifactDir receives repro bundles for violating runs ("" with a
	// StateDir defaults to <StateDir>/artifacts; "" without one writes
	// no bundles).
	ArtifactDir string
	// RunTimeout, if > 0, bounds each replay in wall-clock time: a run
	// still going past it is cut off, retried once, and — on a second
	// timeout — recorded as an incident (State.TimedOut) with an
	// incident bundle under <StateDir>/incidents, then counted as done.
	// A stuck schedule becomes a recorded artifact, never a hang.
	RunTimeout time.Duration
	// StopCheckEvery is the watchdog poll interval in decisions
	// (0 = sched.Watchdog's default).
	StopCheckEvery int
	// CheckpointEvery is the number of completed runs between
	// checkpoint snapshots (0 = 256). Each snapshot compacts the
	// journal.
	CheckpointEvery int64
	// MemSoftLimit, if > 0, is a soft heap ceiling in bytes: while the
	// heap stays above it the campaign steps its worker count down
	// (halving, to a floor of one), journaling each step. Verdicts are
	// unaffected; only throughput and footprint change.
	MemSoftLimit uint64
	// StopOnViolation stops the campaign at the first violation
	// (classic soak behavior) instead of recording it and continuing.
	// A resume over a recorded violation runs only the runs below the
	// lowest one that are not done yet.
	StopOnViolation bool
	// Stop, when non-nil, requests a graceful stop when it becomes
	// readable (typically close()d by a signal handler): workers finish
	// their in-flight runs, a final checkpoint is written, and Run
	// returns with Interrupted set.
	Stop <-chan struct{}
	// Log, if non-nil, receives human-readable campaign events
	// (resume, degradation, durability warnings).
	Log func(string)
	// Progress, if non-nil, receives a cumulative snapshot every
	// ProgressEvery completed runs (serialized under the campaign's
	// state lock — keep the callback cheap and never call back into the
	// campaign from it). This is the job-service streaming hook: a
	// long-running campaign reports liveness without anyone tailing its
	// journal.
	Progress func(ProgressInfo)
	// ProgressEvery is the completed-run interval between Progress
	// calls (0 = 100).
	ProgressEvery int64
}

func (c Config) parallel() int {
	if c.Parallel <= 0 {
		return runtime.NumCPU()
	}
	return c.Parallel
}

func (c Config) checkpointEvery() int64 {
	if c.CheckpointEvery <= 0 {
		return 256
	}
	return c.CheckpointEvery
}

func (c Config) derive() func(int64) (artifact.Meta, artifact.Sched) {
	if c.Derive != nil {
		return c.Derive
	}
	base, crash, max := c.BaseSeed, c.CrashSeed, c.MaxCrashes
	// withModel swaps the derivations' uniform shorthand (Sched.Random)
	// for the configured model: the shared spec plus the per-run derived
	// seed (which overrides the spec's own seed at replay), with the
	// crash knobs untouched.
	withModel := func(s artifact.Sched) artifact.Sched {
		if c.SchedModel != nil {
			s.Model = c.SchedModel
			s.Random = false
		}
		return s
	}
	if w := c.Workload; w != "" && w != "soakmix" {
		n, v, q, wf := c.N, c.V, c.Quantum, c.WaitFreeBound
		return func(idx int64) (artifact.Meta, artifact.Sched) {
			m, s := artifact.SeededMeta(w, n, v, q, wf, base, crash, idx, max)
			return m, withModel(s)
		}
	}
	return func(idx int64) (artifact.Meta, artifact.Sched) {
		m, s := artifact.SoakMeta(base, crash, idx, max)
		return m, withModel(s)
	}
}

func (c Config) identity() Identity {
	id := Identity{BaseSeed: c.BaseSeed, CrashSeed: c.CrashSeed, MaxCrashes: c.MaxCrashes}
	if w := c.Workload; w != "" && w != "soakmix" {
		id.Workload = w
		id.N, id.V, id.Quantum, id.WaitFreeBound = c.N, c.V, c.Quantum, c.WaitFreeBound
	}
	if c.SchedModel != nil {
		id.SchedModel = c.SchedModel.String()
	}
	return id
}

func (c Config) progressEvery() int64 {
	if c.ProgressEvery <= 0 {
		return 100
	}
	return c.ProgressEvery
}

// ProgressInfo is a cumulative campaign snapshot delivered to
// Config.Progress.
type ProgressInfo struct {
	// Runs is the number of completed runs so far (across resumes).
	Runs int64
	// Violations is the number of violations recorded so far.
	Violations int
	// Crashes is the total number of injected crash-stop faults.
	Crashes int64
	// TimedOut is the number of runs the watchdog recorded as incidents.
	TimedOut int64
}

// Result is the outcome of one Run (one leg of a possibly-resumed
// campaign). State is cumulative across legs.
type Result struct {
	State State
	// Interrupted reports the leg stopped before completing all Runs
	// (graceful stop or StopOnViolation); the state directory resumes
	// it.
	Interrupted bool
	// JournalDegraded reports the journal fell back to in-memory-only
	// mode after persistent I/O errors: the in-memory result is
	// complete, but progress since the degradation is not crash-safe.
	JournalDegraded bool
}

// Failed reports whether any run violated its property.
func (r *Result) Failed() bool { return len(r.State.Violations) > 0 }

// campaign is the runtime state of one Run call.
type campaign struct {
	cfg     Config
	derive  func(int64) (artifact.Meta, artifact.Sched)
	journal *Journal

	mu        sync.Mutex
	state     State
	inflight  map[int64]bool
	nextClaim int64
	sinceCkpt int64
	fatal     error

	// ckptMu serializes checkpoints: each takes its snapshot, writes it
	// and compacts the journal before the next begins, so an older
	// snapshot never replaces a newer one, and no compaction drops
	// journal records that the snapshot left on disk lacks.
	ckptMu sync.Mutex

	allowed  atomic.Int32
	stopping atomic.Bool
}

// Run executes (or resumes) the campaign described by cfg. The
// returned error reports setup/persistence failures (unusable state
// dir, identity mismatch, broken workload registry entry); property
// violations are data, reported via Result.
func Run(cfg Config) (*Result, error) {
	c := &campaign{cfg: cfg, derive: cfg.derive(), inflight: make(map[int64]bool)}
	c.allowed.Store(int32(cfg.parallel()))

	if cfg.StateDir != "" {
		if err := c.recover(); err != nil {
			return nil, err
		}
		defer c.journal.Close()
	}
	c.nextClaim = c.state.NextIdx
	if v := c.state.Violations; cfg.StopOnViolation && len(v) > 0 && cfg.Log != nil {
		cfg.Log(fmt.Sprintf("campaign: stop-at-first: running only below the recorded violation in run %d (keep-going runs past it)", v[0].Idx))
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.parallel(); w++ {
		wg.Add(1)
		//repro:allow goroutine campaign worker pool; run outcomes are keyed by index and merged into one idempotent done-set
		go func(w int) {
			defer wg.Done()
			c.worker(w)
		}(w)
	}
	wg.Wait()

	if c.journal != nil {
		if err := c.checkpoint(); err != nil && cfg.Log != nil {
			cfg.Log(fmt.Sprintf("campaign: final checkpoint failed: %v", err))
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return nil, c.fatal
	}
	res := &Result{State: c.state}
	res.Interrupted = cfg.Runs == 0 || !c.complete()
	if c.journal != nil {
		res.JournalDegraded = c.journal.Degraded()
	}
	return res, nil
}

// recover loads the checkpoint and journal from the state directory
// and rebuilds the done-set.
func (c *campaign) recover() error {
	dir := c.cfg.StateDir
	if err := mkdirAll(dir); err != nil {
		return err
	}
	cp, err := LoadCheckpoint(dir)
	if err != nil {
		return err
	}
	if cp != nil {
		if cp.Identity != c.cfg.identity() {
			return fmt.Errorf("campaign: state dir %s belongs to campaign %+v, not %+v — refusing to mix runs",
				dir, cp.Identity, c.cfg.identity())
		}
		c.state = cp.State
	} else {
		// Persist the identity before the first run so a campaign killed
		// at ANY point leaves a state dir that knows its own seeds
		// (cmd/soak -resume reads them from here).
		if err := WriteCheckpoint(dir, &Checkpoint{Version: checkpointVersion, Identity: c.cfg.identity()}); err != nil {
			return err
		}
	}
	j, recs, err := OpenJournal(JournalPath(dir), c.cfg.Log)
	if err != nil {
		return err
	}
	c.journal = j
	for _, rec := range recs {
		c.state.apply(rec)
	}
	if cp != nil || len(recs) > 0 {
		c.state.Resumed++
		c.journal.Append(Record{Type: recNote,
			Event: fmt.Sprintf("resumed: %d runs done, next index %d", c.state.Runs, c.state.NextIdx)})
		if c.cfg.Log != nil {
			c.cfg.Log(fmt.Sprintf("campaign: resuming from %s: %d runs done (%d violations, %d timeouts), next index %d",
				dir, c.state.Runs, len(c.state.Violations), c.state.TimedOut, c.state.NextIdx))
		}
	}
	return nil
}

// complete reports whether every planned run is done. Caller holds mu.
func (c *campaign) complete() bool {
	return c.cfg.Runs > 0 && c.state.NextIdx >= c.cfg.Runs && len(c.state.Extras) == 0
}

// claim reserves the next unfinished run index, or -1 when the
// campaign is stopping or out of work. A stop-at-first campaign stops
// once a run violates; resumed over a recorded violation, it claims
// nothing past the lowest one but still the runs below it, which a
// kill at Parallel > 1 can leave undone.
func (c *campaign) claim() int64 {
	if c.stopRequested() {
		c.stopping.Store(true)
	}
	if c.stopping.Load() {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.state.done(c.nextClaim) || c.inflight[c.nextClaim] {
		c.nextClaim++
	}
	v := c.state.Violations
	pastViolation := c.cfg.StopOnViolation && len(v) > 0 && c.nextClaim > v[0].Idx
	if c.cfg.Runs > 0 && c.nextClaim >= c.cfg.Runs || pastViolation {
		return -1
	}
	idx := c.nextClaim
	c.inflight[idx] = true
	c.nextClaim++
	return idx
}

// stopRequested polls the graceful-stop channel without blocking.
func (c *campaign) stopRequested() bool {
	if c.cfg.Stop == nil {
		return false
	}
	select {
	case <-c.cfg.Stop:
		return true
	default:
		return false
	}
}

// worker is one campaign worker's loop.
func (c *campaign) worker(w int) {
	for {
		if w > 0 && int32(w) >= c.allowed.Load() {
			return // parked by the degradation ladder
		}
		idx := c.claim()
		if idx < 0 {
			return
		}
		rec, err := c.execute(idx)
		c.finish(idx, rec, err)
		if err != nil {
			return
		}
	}
}

// execute replays run idx under the watchdog and renders its outcome
// as a journal record. A non-nil error is fatal (broken registry
// entry), not a verdict.
func (c *campaign) execute(idx int64) (Record, error) {
	meta, s := c.derive(idx)
	b := &artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: s}
	var rep *artifact.Report
	var err error
	for attempt := 0; ; attempt++ {
		opts := artifact.ReplayOptions{}
		if c.cfg.RunTimeout > 0 {
			//repro:allow campaign per-replay watchdog deadline; a timed-out run is a recorded incident, never replayed output
			start := time.Now()
			deadline := c.cfg.RunTimeout
			opts.Stop = func() bool {
				//repro:allow campaign per-replay watchdog deadline; a timed-out run is a recorded incident, never replayed output
				return time.Since(start) > deadline
			}
			opts.StopCheckEvery = c.cfg.StopCheckEvery
		}
		rep, err = artifact.Replay(b, opts)
		if err != nil {
			return Record{}, fmt.Errorf("campaign: run %d: %w", idx, err)
		}
		if rep.Stopped && attempt == 0 {
			continue // retry a timed-out run once before recording it
		}
		break
	}

	rec := Record{Type: recRun, Idx: idx, Crashed: rep.Crashed}
	switch {
	case rep.Stopped:
		rec.TimedOut = true
		rec.Artifact = c.saveIncident(idx, b)
		if c.cfg.Log != nil {
			c.cfg.Log(fmt.Sprintf("campaign: run %d timed out after %v (twice); recorded as incident and skipped", idx, c.cfg.RunTimeout))
		}
	case rep.Err != nil:
		rec.Err = rep.Err.Error()
		rec.Artifact = c.saveRepro(idx, meta, s)
		if c.cfg.StopOnViolation {
			c.stopping.Store(true)
		}
	}
	return rec, nil
}

// saveRepro re-captures a violating run as a trace-bearing repro
// bundle. Capture failures degrade to a logged warning: the violation
// is still recorded by index and error.
func (c *campaign) saveRepro(idx int64, meta artifact.Meta, s artifact.Sched) string {
	dir := c.artifactDir()
	if dir == "" {
		return ""
	}
	b, rep, err := artifact.Capture(meta, s)
	if err == nil && !rep.Failed() {
		err = fmt.Errorf("replay did not reproduce the failure")
	}
	var path string
	if err == nil {
		path, err = b.SaveDir(dir)
	}
	if err != nil {
		if c.cfg.Log != nil {
			c.cfg.Log(fmt.Sprintf("campaign: run %d: repro bundle not saved: %v", idx, err))
		}
		return ""
	}
	return path
}

// saveIncident records a twice-timed-out run's identity (meta +
// schedule, no trace) so it can be replayed and diagnosed offline.
func (c *campaign) saveIncident(idx int64, b *artifact.Bundle) string {
	if c.cfg.StateDir == "" {
		return ""
	}
	dir := filepath.Join(c.cfg.StateDir, "incidents")
	if err := mkdirAll(dir); err != nil {
		return ""
	}
	inc := *b
	inc.Err = fmt.Sprintf("watchdog: run %d exceeded %v twice", idx, c.cfg.RunTimeout)
	path, err := inc.SaveDir(dir)
	if err != nil {
		if c.cfg.Log != nil {
			c.cfg.Log(fmt.Sprintf("campaign: run %d: incident bundle not saved: %v", idx, err))
		}
		return ""
	}
	return path
}

func (c *campaign) artifactDir() string {
	if c.cfg.ArtifactDir != "" {
		return c.cfg.ArtifactDir
	}
	if c.cfg.StateDir != "" {
		return filepath.Join(c.cfg.StateDir, "artifacts")
	}
	return ""
}

// finish journals and folds in one completed run, checkpointing and
// polling the memory ladder at their cadences.
func (c *campaign) finish(idx int64, rec Record, fatal error) {
	c.mu.Lock()
	delete(c.inflight, idx)
	if fatal != nil {
		if c.fatal == nil {
			c.fatal = fatal
		}
		c.stopping.Store(true)
		c.mu.Unlock()
		return
	}
	c.state.apply(rec)
	c.sinceCkpt++
	needCkpt := c.journal != nil && c.sinceCkpt >= c.cfg.checkpointEvery()
	if needCkpt {
		c.sinceCkpt = 0
	}
	if c.cfg.Progress != nil && c.state.Runs%c.cfg.progressEvery() == 0 {
		c.cfg.Progress(ProgressInfo{Runs: c.state.Runs, Violations: len(c.state.Violations),
			Crashes: c.state.Crashes, TimedOut: c.state.TimedOut})
	}
	c.mu.Unlock()

	if c.journal != nil {
		c.journal.Append(rec)
	}
	if needCkpt {
		if err := c.checkpoint(); err != nil && c.cfg.Log != nil {
			c.cfg.Log(fmt.Sprintf("campaign: checkpoint failed (journal still authoritative): %v", err))
		}
	}
	c.memPressure()
}

// checkpoint atomically snapshots the state and compacts the journal.
func (c *campaign) checkpoint() error {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	c.mu.Lock()
	cp := &Checkpoint{Version: checkpointVersion, Identity: c.cfg.identity(), State: c.state.clone()}
	c.mu.Unlock()
	if err := WriteCheckpoint(c.cfg.StateDir, cp); err != nil {
		return err
	}
	c.journal.Compact()
	return nil
}

// clone deep-copies the state (the checkpoint writer must not race
// workers appending to the slices).
func (s *State) clone() State {
	out := *s
	out.Extras = append([]int64(nil), s.Extras...)
	out.Violations = append([]Violation(nil), s.Violations...)
	out.Degradations = append([]string(nil), s.Degradations...)
	return out
}

// memPressure walks the campaign's degradation ladder: while the heap
// sits above the soft limit, halve the allowed workers (to a floor of
// one), journaling each step. A step, its state entry and its journal
// record are one critical section, so the records keep the steps'
// order and a resume replays them in it.
func (c *campaign) memPressure() {
	if c.cfg.MemSoftLimit == 0 {
		return
	}
	heap := heapBytes()
	if heap <= c.cfg.MemSoftLimit {
		return
	}
	n := c.allowed.Load()
	if n <= 1 {
		return
	}
	c.mu.Lock()
	if c.allowed.Load() != n {
		c.mu.Unlock()
		return // another worker just stepped; one step per observation
	}
	c.allowed.Store((n + 1) / 2)
	event := fmt.Sprintf("memory pressure: heap %dMB over soft limit %dMB; stepped workers %d -> %d",
		heap>>20, c.cfg.MemSoftLimit>>20, n, (n+1)/2)
	c.state.Degradations = append(c.state.Degradations, event)
	if c.journal != nil {
		c.journal.Append(Record{Type: recDegrade, Event: event})
	}
	c.mu.Unlock()
	if c.cfg.Log != nil {
		c.cfg.Log("campaign: " + event)
	}
	runtime.GC()
}

// heapBytes reads the bytes of allocated heap objects, the quantity
// runtime.MemStats.HeapAlloc reports, without stopping the world as
// runtime.ReadMemStats does; the ladder reads it after every run.
func heapBytes() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
