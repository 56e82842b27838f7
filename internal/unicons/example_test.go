package unicons_test

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// Example demonstrates Theorem 1: five processes across three priority
// levels reach consensus in exactly 8 statements each, using only reads
// and writes, on a hybrid-scheduled uniprocessor with Q = 8.
func Example() {
	sys := sim.New(sim.Config{
		Processors: 1,
		Quantum:    unicons.MinQuantum,
		Chooser:    sched.NewUniform(3),
	})
	obj := unicons.New("cons")
	outs := make([]uint64, 5)
	for i := 0; i < 5; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%3}).
			AddInvocation(func(c *sim.Ctx) {
				outs[i] = obj.Decide(c, uint64(i+1))
			})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	agreed := true
	for _, o := range outs {
		agreed = agreed && o == outs[0]
	}
	fmt.Println(agreed)
	// Output: true
}
