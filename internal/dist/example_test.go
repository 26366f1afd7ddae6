package dist_test

import (
	"fmt"

	"fxpar/internal/dist"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// ExampleAssign shows the parent-scope pipeline assignment A2 = A1 between
// arrays mapped onto disjoint subgroups (Figure 2): only the owners
// participate.
func ExampleAssign() {
	mach := machine.New(4, sim.Paragon())
	stats := mach.Run(func(p *machine.Proc) {
		g1 := group.MustNew([]int{0, 1})
		g2 := group.MustNew([]int{2, 3})
		a1 := dist.New[int64](p, dist.RowBlock2D(g1, 4, 2))
		a2 := dist.New[int64](p, dist.RowBlock2D(g2, 4, 2))
		a1.FillFunc(func(idx []int) int64 { return int64(10*idx[0] + idx[1]) })
		dist.Assign(p, a2, a1) // A2 = A1
		if full := dist.GatherGlobal(p, a2); full != nil {
			fmt.Println("a2 =", full)
		}
	})
	fmt.Printf("all messages delivered; %d processors participated\n", len(stats.Procs))
	// Output:
	// a2 = [0 1 10 11 20 21 30 31]
	// all messages delivered; 4 processors participated
}

// ExampleNewAligned shows HPF ALIGN: an array aligned at offset 4 into a
// template is co-located with the template elements it aligns with.
func ExampleNewAligned() {
	mach := machine.New(4, sim.Paragon())
	mach.Run(func(p *machine.Proc) {
		g := group.World(4)
		template := dist.MustLayout(g, []int{16}, []dist.Axis{dist.BlockAxis()}, []int{4})
		aligned, err := dist.NewAligned(template, []int{8}, []int{4})
		if err != nil {
			panic(err)
		}
		if p.ID() == 0 {
			for i := 0; i < 8; i++ {
				fmt.Printf("aligned[%d] on rank %d (template[%d] on rank %d)\n",
					i, aligned.OwnerRank(i), i+4, template.OwnerRank(i+4))
			}
		}
	})
	// Output:
	// aligned[0] on rank 1 (template[4] on rank 1)
	// aligned[1] on rank 1 (template[5] on rank 1)
	// aligned[2] on rank 1 (template[6] on rank 1)
	// aligned[3] on rank 1 (template[7] on rank 1)
	// aligned[4] on rank 2 (template[8] on rank 2)
	// aligned[5] on rank 2 (template[9] on rank 2)
	// aligned[6] on rank 2 (template[10] on rank 2)
	// aligned[7] on rank 2 (template[11] on rank 2)
}
