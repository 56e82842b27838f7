package multicons_test

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Example demonstrates Theorem 4: four processes on two processors reach
// consensus through 3-consensus objects (C = P + K = 2 + 1), even though
// four participants exceed the objects' consensus number.
func Example() {
	sys := sim.New(sim.Config{
		Processors: 2,
		Quantum:    2048,
		Chooser:    sched.NewUniform(1),
		MaxSteps:   1 << 22,
	})
	alg := multicons.New(multicons.Config{Name: "ex", P: 2, K: 1, M: 2, V: 1})
	outs := make([]mem.Word, 4)
	for i := 0; i < 4; i++ {
		i := i
		sys.AddProcess(sim.ProcSpec{Processor: i % 2, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				outs[i] = alg.Decide(c, mem.Word(i+1))
			})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Println(outs[0] == outs[1] && outs[1] == outs[2] && outs[2] == outs[3])
	// Output: true
}
