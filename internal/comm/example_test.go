package comm_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// ExampleAllReduce combines one value per processor across a group.
func ExampleAllReduce() {
	mach := machine.New(4, sim.Paragon())
	var mu sync.Mutex
	var lines []string
	mach.Run(func(p *machine.Proc) {
		g := group.World(4)
		sum := comm.AllReduce(p, g, p.ID()+1, func(a, b int) int { return a + b })
		mu.Lock()
		lines = append(lines, fmt.Sprintf("proc %d sees sum %d", p.ID(), sum))
		mu.Unlock()
	})
	sort.Strings(lines)
	fmt.Println(strings.Join(lines, "\n"))
	// Output:
	// proc 0 sees sum 10
	// proc 1 sees sum 10
	// proc 2 sees sum 10
	// proc 3 sees sum 10
}

// ExampleBarrier shows that a subset barrier only synchronizes its group:
// the outsider keeps a zero clock.
func ExampleBarrier() {
	mach := machine.New(3, sim.Paragon())
	stats := mach.Run(func(p *machine.Proc) {
		sub := group.MustNew([]int{0, 1})
		if !sub.Contains(p.ID()) {
			return // processor 2 skips past
		}
		if p.ID() == 0 {
			p.Compute(1e6) // 0.1 virtual seconds
		}
		comm.Barrier(p, sub)
	})
	fmt.Printf("proc1 waited for proc0: %v\n", stats.Procs[1].Finish > 0.09)
	fmt.Printf("outsider untouched: %v\n", stats.Procs[2].Finish == 0)
	// Output:
	// proc1 waited for proc0: true
	// outsider untouched: true
}
