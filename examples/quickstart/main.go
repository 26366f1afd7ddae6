// Quickstart: the paper's Section 2.1 example, executable.
//
// Eight simulated processors are divided into subgroups "some" (3) and
// "many" (5) by a TASK_PARTITION; arrays are mapped onto each subgroup;
// ON SUBGROUP blocks compute independently on each side; and a parent-scope
// assignment moves data from "some" to "many" — exactly the code shape of
// the paper's first example.
//
// Run with: go run ./examples/quickstart
// (add -engine coop to run on the cooperative execution engine, or
// -engine coop:4 for the same scheduler on four host workers; add -p 4096 to
// grow the machine — the "many" subgroup absorbs the extra processors and
// the gathered array is unchanged, only host time moves)
package main

import (
	"flag"
	"fmt"
	"os"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

func main() {
	engine := flag.String("engine", machine.DefaultEngineName(), "execution engine: goroutine, coop, or coop:N")
	procs := flag.Int("p", 8, "simulated processors (>= 4: 3 for the some subgroup, the rest for many)")
	flag.Parse()
	eng, err := machine.EngineByName(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(2)
	}
	if *procs < 4 {
		fmt.Fprintln(os.Stderr, "quickstart: -p must be at least 4 (the some subgroup takes 3)")
		os.Exit(2)
	}
	mach := machine.New(*procs, sim.Paragon())
	mach.SetEngine(eng)

	stats := fx.Run(mach, func(p *fx.Proc) {
		// TASK_PARTITION myPart :: some(3), many(NUMBER_OF_PROCESSORS()-3)
		part := p.Partition(
			group.Sub("some", 3),
			group.Sub("many", p.NumberOfProcessors()-3),
		)

		// SUBGROUP(some) :: someLow ; SUBGROUP(many) :: manyLow, manyHigh
		someLow := dist.New[float64](p.Proc, dist.RowBlock2D(part.Group("some"), 6, 4))
		manyLow := dist.New[float64](p.Proc, dist.RowBlock2D(part.Group("many"), 6, 4))
		manyHigh := dist.New[float64](p.Proc, dist.RowBlock2D(part.Group("many"), 6, 4))

		// BEGIN TASK_REGION
		p.TaskRegion(part, func(r *fx.Region) {
			// ON SUBGROUP some: someLow = ...
			r.On("some", func() {
				someLow.FillFunc(func(idx []int) float64 {
					return float64(idx[0]*10 + idx[1])
				})
				p.Barrier() // subgroup-local barrier: "many" is unaffected
			})

			// Parent scope: manyLow = someLow (runs on the union of owners).
			dist.Assign(p.Proc, manyLow, someLow)

			// ON SUBGROUP many: manyHigh = f(manyLow)
			r.On("many", func() {
				for i, v := range manyLow.Local() {
					manyHigh.Local()[i] = 2*v + 1
				}
				p.Compute(float64(len(manyLow.Local())) * 2)
			})
		})
		// END TASK_REGION

		// Gather the result on the "many" subgroup's first processor.
		if out := dist.GatherGlobal(p.Proc, manyHigh); out != nil {
			fmt.Println("manyHigh = 2*someLow + 1, gathered on the many subgroup:")
			for i := 0; i < 6; i++ {
				fmt.Printf("  %v\n", out[i*4:(i+1)*4])
			}
		}
	})

	fmt.Printf("\nvirtual makespan: %.6f s over %d processors (%s engine)\n",
		stats.MakespanTime(), len(stats.Procs), mach.Engine().Name())
	// At large -p the per-processor table would drown the output; show the
	// first processors of each subgroup and elide the rest.
	shown := len(stats.Procs)
	if shown > 8 {
		shown = 8
	}
	for _, ps := range stats.Procs[:shown] {
		fmt.Printf("  proc %d: finish %.6f s, busy %.6f s, sent %d msgs\n",
			ps.ID, ps.Finish, ps.Busy, ps.MsgsSent)
	}
	if len(stats.Procs) > shown {
		fmt.Printf("  ... and %d more processors\n", len(stats.Procs)-shown)
	}
}
