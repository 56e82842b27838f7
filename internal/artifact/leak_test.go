package artifact_test

import (
	"runtime"
	"testing"

	"repro/internal/artifact"
)

// TestReplayLeavesNoGoroutines checks that Replay closes the system it
// builds: after a batch of soakmix replays, with crash injection as
// soak campaigns run them, no process coroutine is left parked.
func TestReplayLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	for idx := int64(0); idx < 100; idx++ {
		meta, s := artifact.SoakMeta(7, 9, idx, 1)
		b := &artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: s}
		if _, err := artifact.Replay(b, artifact.ReplayOptions{}); err != nil {
			t.Fatalf("Replay(idx=%d): %v", idx, err)
		}
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after 100 soakmix replays, %d before", n, start)
	}
}
