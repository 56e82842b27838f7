package qlocal_test

import (
	"fmt"

	"repro/internal/qlocal"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Example demonstrates the level-local Q-F&I: three same-priority
// processes — quantum-scheduled with respect to one another — draw
// unique tickets from a fetch-and-increment built from reads and writes.
func Example() {
	sys := sim.New(sim.Config{
		Processors: 1,
		Quantum:    qlocal.RecommendedQuantum,
		Chooser:    sched.NewUniform(2),
	})
	ctr := qlocal.New("tickets", 0)
	tickets := make([]uint64, 3)
	for i := 0; i < 3; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				tickets[i] = ctr.FetchInc(c)
			})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	unique := tickets[0] != tickets[1] && tickets[1] != tickets[2] && tickets[0] != tickets[2]
	fmt.Println(unique, ctr.Peek())
	// Output: true 3
}
