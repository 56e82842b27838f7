package artifact_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/artifact"
)

// soakIdentities are the campaign identities the soak stream pins
// cover: the CI soak's base seed, an identity with a full crash budget,
// and the int64 edges.
var soakIdentities = []struct {
	base, crash int64
	maxCrashes  int
}{
	{1, 0, 2},
	{11, 13, 6},
	{math.MinInt64 + 7, math.MaxInt64, 0},
}

// soakMetaDigest is the SHA-256 of SoakMeta over run indices 0–29,999
// of every soakIdentities entry, one line per run.
const soakMetaDigest = "286f29e6d8d7319b6a67f0e85b22dbc0bb850b29fdc26d567f6c1d810bc5cd45"

// TestSoakMetaStreamDigest pins the soak derivation: campaigns,
// bundles and recorded reproductions name their runs by (base, crash
// base, index), so SoakMeta must keep deriving the same workload,
// schedule seed and crash plan for each.
func TestSoakMetaStreamDigest(t *testing.T) {
	h := sha256.New()
	for _, id := range soakIdentities {
		for idx := int64(0); idx < 30_000; idx++ {
			m, s := artifact.SoakMeta(id.base, id.crash, idx, id.maxCrashes)
			fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %v\n", idx, m.N, m.V, m.Quantum, m.MaxSteps, m.WorkSeed,
				s.Seed, s.CrashSeed, s.MaxCrashes, math.Float64bits(s.CrashProb), s.Random)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != soakMetaDigest {
		t.Fatalf("SoakMeta digest %s, want %s", got, soakMetaDigest)
	}
}

// soakReplayDigest is the SHA-256 of 300 recorded soakmix replays with
// up to one crash each, one line per run.
const soakReplayDigest = "fe5a37aa4549c09e7393c11c1d08477feb65284444efde68abe51ddc71b1483a"

// TestSoakMixReplayDigest pins what a soak run executes: the workload
// content soakmix derives from Meta.WorkSeed, the uniform schedule and
// the crash plan. Each replay must make the same decisions, fire the
// same crashes at the same steps and reach the same verdict.
func TestSoakMixReplayDigest(t *testing.T) {
	h := sha256.New()
	var fired, failed int
	for idx := int64(0); idx < 300; idx++ {
		meta, s := artifact.SoakMeta(5101, 5101^0x5deece66d, idx, 1)
		rep, err := artifact.Replay(&artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: s},
			artifact.ReplayOptions{Record: true})
		if err != nil {
			t.Fatalf("run %d: %v", idx, err)
		}
		fmt.Fprintf(h, "%d %v %v %d %d %q %q\n", idx, rep.Decisions, rep.Fired, rep.Steps, rep.Crashed,
			firstLine(rep.Err), firstLine(rep.RunErr))
		fired += len(rep.Fired)
		if rep.Failed() {
			failed++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("300 soakmix runs, %d crashes fired, %d failing verdicts", fired, failed)
	if failed != 0 {
		t.Errorf("%d soakmix runs failed; soak runs of the fixed stack must be clean", failed)
	}
	if got != soakReplayDigest {
		t.Fatalf("soakmix replay digest %s, want %s", got, soakReplayDigest)
	}
}
