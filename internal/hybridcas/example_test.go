package hybridcas_test

import (
	"fmt"

	"repro/internal/hybridcas"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Example demonstrates the Fig. 5 object: three processes at different
// priority levels increment a shared counter with C&S retry loops, using
// only reads and writes underneath.
func Example() {
	sys := sim.New(sim.Config{
		Processors: 1,
		Quantum:    hybridcas.RecommendedQuantum,
		Chooser:    sched.NewUniform(1),
	})
	obj := hybridcas.New("counter", 3, 0)
	for i := 0; i < 3; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: i + 1}).
			AddInvocation(func(c *sim.Ctx) {
				for {
					v := obj.Read(c)
					if obj.CompareAndSwap(c, v, v+1) {
						return
					}
				}
			})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Println(obj.Peek())
	// Output: 3
}
