package artifact_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
)

// crashDigestFamilies are the workload configurations the crash digest
// replays. soakmix has a digest of its own (TestSoakMixReplayDigest).
var crashDigestFamilies = []struct {
	meta  artifact.Meta
	procs int
}{
	{artifact.Meta{Workload: "unicons", N: 3, V: 2, Quantum: 2}, 3},
	{artifact.Meta{Workload: "unicons", N: 4, V: 1, Quantum: 8}, 4},
	{artifact.Meta{Workload: "hybridcas", N: 3, V: 2, Quantum: 4}, 3},
	{artifact.Meta{Workload: "universal", N: 3, V: 2, Quantum: 4, MaxSteps: 1 << 14}, 3},
	{artifact.Meta{Workload: "lockcounter", N: 3, V: 2, Quantum: 2, MaxSteps: 2000, WaitFreeBound: 50}, 3},
	{artifact.Meta{Workload: "multicons", P: 2, M: 2, V: 2, Quantum: 4, MaxSteps: 1 << 14}, 4},
}

// crashDigestBundles returns the crash-injected bundles the digest
// covers: seeded runs (artifact.SeededMeta) with one and two crashes at
// the default and a high per-step crash probability, and planned
// crashes (Meta.Crashes) of every process, alone and in pairs, at steps
// from before the first statement to past most runs' end.
func crashDigestBundles() []*artifact.Bundle {
	var out []*artifact.Bundle
	for fi, f := range crashDigestFamilies {
		for k := 1; k <= 2; k++ {
			for _, prob := range []float64{0, 0.25} {
				for idx := int64(0); idx < 40; idx++ {
					base := int64(1101 + 100*fi)
					meta, s := artifact.SeededMeta(f.meta.Workload, f.procs, f.meta.V, f.meta.Quantum,
						f.meta.WaitFreeBound, base, base^0x5deece66d, idx, k)
					meta.N, meta.P, meta.M, meta.MaxSteps = f.meta.N, f.meta.P, f.meta.M, f.meta.MaxSteps
					s.CrashProb = prob
					out = append(out, &artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: s})
				}
			}
		}
		var plans [][]sched.CrashPoint
		for _, step := range []int64{0, 1, 3, 7, 15, 40} {
			for p := 0; p < f.procs; p++ {
				plans = append(plans, []sched.CrashPoint{{Proc: p, Step: step}})
			}
			plans = append(plans,
				[]sched.CrashPoint{{Proc: 0, Step: step}, {Proc: 1, Step: step}},
				[]sched.CrashPoint{{Proc: 1, Step: step}, {Proc: f.procs - 1, Step: step + 2}})
		}
		for i, plan := range plans {
			meta := f.meta
			meta.Crashes = plan
			s := artifact.Sched{Random: true, Seed: int64(7 + i)}
			if i%3 == 0 {
				s = artifact.Sched{} // script mode: candidate 0 at every decision
			}
			out = append(out, &artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: s})
		}
	}
	return out
}

// firstLine is err's text up to its first newline: a replay panic's
// report carries a stack trace, which names source lines.
func firstLine(err error) string {
	if err == nil {
		return ""
	}
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}

// crashReplayDigest is the SHA-256 of every crash digest bundle's
// recorded replay, one line per bundle: decisions, fired crash points,
// fanouts, step count, crash count and verdict.
const crashReplayDigest = "a3050994e6cdf9b086464e65c24c7a209710da32033cfd382a81fb635675337c"

// TestCrashReplayDigest pins the crash-injected runs of every
// registered workload but soakmix: replayed with Record, each bundle
// must make the same decisions, fire the same crash points at the same
// steps and reach the same verdict as when the digest was taken. A
// change to where the kernel polls the crash injector must not move any
// of them.
func TestCrashReplayDigest(t *testing.T) {
	h := sha256.New()
	var bundles, fired, failed, limited, pairs int
	for i, b := range crashDigestBundles() {
		rep, err := artifact.Replay(b, artifact.ReplayOptions{Record: true})
		if err != nil {
			t.Fatalf("bundle %d (%s): %v", i, b.Meta.Workload, err)
		}
		fmt.Fprintf(h, "%d %s %v %v %v %d %d %q %q\n", i, b.Meta.Workload, rep.Decisions, rep.Fired, rep.Fanouts,
			rep.Steps, rep.Crashed, firstLine(rep.Err), firstLine(rep.RunErr))
		bundles++
		fired += len(rep.Fired)
		for j := 1; j < len(rep.Fired); j++ {
			if rep.Fired[j].Step == rep.Fired[j-1].Step {
				pairs++
			}
		}
		if rep.Failed() {
			failed++
		}
		if rep.RunErr != nil {
			limited++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d bundles, %d crashes fired, %d steps with two victims, %d failing verdicts, %d runs ended by an error",
		bundles, fired, pairs, failed, limited)
	if got != crashReplayDigest {
		t.Fatalf("crash replay digest %s, want %s", got, crashReplayDigest)
	}
}
