package universal_test

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/universal"
)

// Example demonstrates a custom wait-free object: a max register defined
// by a three-line sequential specification, made wait-free for all
// priority levels of one hybrid-scheduled processor by the universal
// construction (reads and writes only underneath).
func Example() {
	maxApply := func(state any, op mem.Word) (any, mem.Word) {
		v := state.(mem.Word)
		if op > v {
			return op, v
		}
		return v, v
	}
	sys := sim.New(sim.Config{
		Processors: 1,
		Quantum:    32,
		Chooser:    sched.NewUniform(1),
	})
	o := universal.New("max", mem.Word(0), maxApply)
	for _, v := range []mem.Word{7, 3, 9, 5} {
		v := v
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + int(v)%2}).
			AddInvocation(func(c *sim.Ctx) { o.Invoke(c, v) })
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Println(o.PeekState())
	// Output: 9
}
