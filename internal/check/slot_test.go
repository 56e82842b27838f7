package check

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// TestChooserSlotForwardsReadsSince pins that the pooled runner's slot
// reports what the chooser in it reports, so a pooled reduced run keeps
// the access log its sleep sets read and any other run skips it. Every
// registered model is tried, wrappers around the reduced model.
func TestChooserSlotForwardsReadsSince(t *testing.T) {
	for _, name := range sched.Models() {
		spec := &sched.ModelSpec{Name: name}
		if sched.LookupModel(name).Wrapper {
			spec.Inner = &sched.ModelSpec{Name: "reduced"}
		}
		ch, err := sched.NewFromSpec(spec)
		if err != nil {
			t.Fatalf("NewFromSpec(%s): %v", spec, err)
		}
		want := name == "reduced" || spec.Inner != nil
		var slot chooserSlot
		slot.set(ch)
		if got := slot.ReadsSince(); got != want {
			t.Errorf("%s in the slot: ReadsSince = %v, want %v", spec, got, want)
		}
	}
	var slot chooserSlot
	slot.set(sim.ChooserFunc(func(sim.Decision) int { return 0 }))
	if !slot.ReadsSince() {
		t.Error("a chooser without ReadsSince in the slot: ReadsSince = false, want true")
	}
}
