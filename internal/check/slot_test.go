package check

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// TestChooserSlotForwardsReadsSince pins that the pooled runner's slot
// reports what the chooser in it reports, so a pooled reduced run keeps
// the access log its sleep sets read and any other run skips it. Every
// registered model is tried (the wrapper around uniform), and so are
// the engine's wrapper nestings around a Reduced chooser with sleep
// sets on and off.
func TestChooserSlotForwardsReadsSince(t *testing.T) {
	type row struct {
		name string
		ch   sim.Chooser
		want bool
	}
	var rows []row
	for _, name := range sched.Models() {
		spec := &sched.ModelSpec{Name: name}
		if sched.LookupModel(name).Wrapper {
			spec.Inner = &sched.ModelSpec{Name: "uniform"}
		}
		ch, err := sched.NewFromSpec(spec)
		if err != nil {
			t.Fatalf("NewFromSpec(%s): %v", spec, err)
		}
		rows = append(rows, row{spec.String(), ch, false})
	}
	for _, sleep := range []bool{true, false} {
		reduced := func() sim.Chooser { return &sched.Reduced{SleepSets: sleep} }
		at := fmt.Sprintf(" with sleep sets %v", sleep)
		rows = append(rows,
			row{"reduced" + at, reduced(), sleep},
			row{"record(watchdog(reduced))" + at, sched.NewRecord(&sched.Watchdog{Inner: reduced()}), sleep},
			row{"randomcrash(crash(reduced))" + at, sched.NewRandomCrash(sched.NewCrash(reduced()), 0, 1, 0), sleep},
			row{"record(reduced)" + at, sched.NewRecord(reduced()), sleep},
		)
	}
	for _, r := range rows {
		var slot chooserSlot
		slot.set(r.ch)
		if got := slot.ReadsSince(); got != r.want {
			t.Errorf("%s in the slot: ReadsSince = %v, want %v", r.name, got, r.want)
		}
	}
	var slot chooserSlot
	slot.set(sim.ChooserFunc(func(sim.Decision) int { return 0 }))
	if !slot.ReadsSince() {
		t.Error("a chooser without ReadsSince in the slot: ReadsSince = false, want true")
	}
}

// TestCrashesArmedForwarding pins sim.CrashesArmed, the kernel's one
// rule for polling a chooser for crashes, through every wrapper that
// forwards it: a plain chooser is never polled, a planned and a random
// crash injector always are, bare or inside Record, Watchdog or the
// pooled runner's slot.
func TestCrashesArmedForwarding(t *testing.T) {
	rows := []struct {
		name  string
		build func() sim.Chooser
		want  bool
	}{
		{"plain", func() sim.Chooser { return sched.NewUniform(1) }, false},
		{"crash", func() sim.Chooser {
			return sched.NewCrash(sched.NewUniform(1), sched.CrashPoint{Proc: 1, Step: 6})
		}, true},
		{"randomcrash", func() sim.Chooser { return sched.NewRandomCrash(sched.NewUniform(1), 3, 1, 0.05) }, true},
	}
	wrappers := []struct {
		name string
		wrap func(sim.Chooser) sim.Chooser
	}{
		{"bare", func(ch sim.Chooser) sim.Chooser { return ch }},
		{"record", func(ch sim.Chooser) sim.Chooser { return sched.NewRecord(ch) }},
		{"watchdog", func(ch sim.Chooser) sim.Chooser { return &sched.Watchdog{Inner: ch} }},
		{"slot", func(ch sim.Chooser) sim.Chooser {
			slot := &chooserSlot{}
			slot.set(ch)
			return slot
		}},
	}
	for _, r := range rows {
		for _, w := range wrappers {
			if got := sim.CrashesArmed(w.wrap(r.build())); got != r.want {
				t.Errorf("%s %s: CrashesArmed = %v, want %v", r.name, w.name, got, r.want)
			}
		}
	}
}
