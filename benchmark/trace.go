package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sim"
)

// epoch anchors every timestamp the benchmark takes; now reads the
// monotonic clock relative to it in nanoseconds.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call recorded by the traced run: passes, explorer
// calls, jobs, legs, lint runs, replays, shrinks, syncs, checkpoints,
// and one summary span per layer per pass for the hot calls that are
// tallied instead of spanned.
type span struct {
	name   string
	cat    string
	id     int64
	parent int64
	tid    int
	start  int64
	end    int64
	args   map[string]any
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
}

// id reserves a span id before the span ends, so children can name it
// as their parent.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (t *tracer) add(id int64, name, cat string, parent int64, tid int, start, end int64, args map[string]any) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, cat: cat, id: id, parent: parent, tid: tid, start: start, end: end, args: args})
	t.mu.Unlock()
}

// write renders the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly, on one process track named after the workload. extra
// lands in the file's metadata.
func (t *tracer) write(path, workload string, extra map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": workload}})
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Cat: s.cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: s.tid, Args: args})
	}
	t.mu.Unlock()
	data, err := json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"metadata":        extra,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// acc is one explorer worker's tally of the hot per-run calls. The
// builder makes one per build, and the explorers build once per worker
// (the pooled system is reset, not rebuilt), so each acc has a single
// writer: the worker goroutine. It is read after the explorer returns.
// The fields are plain counters, so a call allocates nothing.
type acc struct {
	picks    int64
	pickNs   int64
	runs     int64 // runs seen, including pruned runs that skip Verify
	verifies int64
	verifyNs int64
	stmts    int64 // statements executed, summed over runs
	simNs    int64 // kernel time: the gaps between chooser calls in a run
	driverNs int64 // explorer time: from one run's end to the next run's first Pick

	lastExit int64 // when the last Pick or Verify returned
	lastStep int64 // Decision.Step of the last Pick
	inRun    bool
}

// endRun closes a run that ended without Verify (a pruned run).
func (a *acc) endRun() {
	if a.inRun {
		a.runs++
		a.stmts += a.lastStep
		a.inRun = false
	}
}

// timedChooser forwards to the explorer's chooser and times Pick. It
// forwards the crash-injection interface too, so wrapping changes
// nothing the kernel can observe.
type timedChooser struct {
	inner sim.Chooser
	a     *acc
}

// Pick implements sim.Chooser. A decision at a lower step than the last
// one starts a new run on the pooled system.
func (c *timedChooser) Pick(d sim.Decision) int {
	t0 := now()
	a := c.a
	if a.inRun && d.Step < a.lastStep {
		a.endRun()
	}
	if a.inRun {
		a.simNs += t0 - a.lastExit
	} else {
		if a.lastExit != 0 {
			a.driverNs += t0 - a.lastExit
		}
		a.inRun = true
	}
	i := c.inner.Pick(d)
	t1 := now()
	a.picks++
	a.pickNs += t1 - t0
	a.lastExit, a.lastStep = t1, d.Step
	return i
}

// Crashes implements sim.Crasher by delegation.
func (c *timedChooser) Crashes(d sim.Decision) []*sim.Process {
	if cr, ok := c.inner.(sim.Crasher); ok {
		return cr.Crashes(d)
	}
	return nil
}

// CrashesArmed reports whether the wrapped chooser can inject faults.
func (c *timedChooser) CrashesArmed() bool {
	cr, ok := c.inner.(sim.Crasher)
	if !ok {
		return false
	}
	if ca, ok := cr.(interface{ CrashesArmed() bool }); ok {
		return ca.CrashesArmed()
	}
	return true
}

// passTally collects the accumulators of one traced pass.
type passTally struct {
	mu   sync.Mutex
	accs []*acc
}

// builder returns a check.Builder over artifact.Build that wraps the
// explorer's chooser in a timedChooser and times the Verify func.
func (p *passTally) builder(meta artifact.Meta) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		a := &acc{}
		p.mu.Lock()
		p.accs = append(p.accs, a)
		p.mu.Unlock()
		sys, verify, err := artifact.Build(meta, &timedChooser{inner: ch, a: a}, nil)
		if err != nil {
			panic(err) // the metas are the benchmark's own registered workloads
		}
		return sys, func(runErr error) error {
			t0 := now()
			if a.inRun {
				a.simNs += t0 - a.lastExit
			} else if a.lastExit != 0 {
				a.driverNs += t0 - a.lastExit
			}
			err := verify(runErr)
			t1 := now()
			a.runs++
			a.verifies++
			a.verifyNs += t1 - t0
			a.stmts += sys.Steps()
			a.inRun = false
			a.lastExit = t1
			return err
		}
	}
}

// sum folds the pass's accumulators into one.
func (p *passTally) sum() acc {
	var s acc
	for _, a := range p.accs {
		a.endRun()
		s.add(a)
	}
	return s
}

// add adds another accumulator's tallies to a.
func (a *acc) add(o *acc) {
	a.picks += o.picks
	a.pickNs += o.pickNs
	a.runs += o.runs
	a.verifies += o.verifies
	a.verifyNs += o.verifyNs
	a.stmts += o.stmts
	a.simNs += o.simNs
	a.driverNs += o.driverNs
}

// calibration is the timing wrapper's own cost: in is the part of an
// empty Pick's measured interval that is timer overhead, out the part
// that lands in the gaps around it.
type calibration struct{ in, out float64 }

// calibrate times the wrapper around a chooser that does nothing.
func calibrate() calibration {
	const n = 200000
	a := &acc{}
	c := &timedChooser{inner: sim.FirstChooser{}, a: a}
	d := sim.Decision{}
	t0 := now()
	for i := 0; i < n; i++ {
		d.Step = int64(i)
		c.Pick(d)
	}
	total := float64(now()-t0) / n
	in := float64(a.pickNs) / n
	return calibration{in: in, out: max(total-in, 0)}
}
