package comm

import (
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Collectives must work on groups whose virtual order differs from physical
// ids and whose members are non-contiguous — the situation after nested
// partitioning of scattered subgroups.

func scrambledGroup() *group.Group {
	return group.MustNew([]int{5, 1, 6, 2, 0})
}

func TestBarrierScrambledGroup(t *testing.T) {
	m := testMachine(8)
	g := scrambledGroup()
	stats := m.Run(func(p *machine.Proc) {
		if !g.Contains(p.ID()) {
			return
		}
		if r, _ := g.RankOf(p.ID()); r == 0 {
			p.Compute(1e5) // the slowest member
		}
		Barrier(p, g)
	})
	for _, id := range g.PhysAll() {
		if stats.Procs[id].Finish < 0.1 {
			t.Errorf("member %d finished at %g, before the slow member's 0.1s", id, stats.Procs[id].Finish)
		}
	}
	for _, id := range []int{3, 4, 7} {
		if stats.Procs[id].Finish != 0 {
			t.Errorf("non-member %d was disturbed", id)
		}
	}
}

func TestBcastReduceScrambledGroup(t *testing.T) {
	m := testMachine(8)
	g := scrambledGroup()
	m.Run(func(p *machine.Proc) {
		if !g.Contains(p.ID()) {
			return
		}
		r, _ := g.RankOf(p.ID())
		// Root is virtual rank 3 (physical 2).
		var data []int
		if r == 3 {
			data = []int{42, p.ID()}
		}
		got := Bcast(p, g, 3, data)
		if len(got) != 2 || got[0] != 42 || got[1] != 2 {
			t.Errorf("rank %d (phys %d): bcast got %v", r, p.ID(), got)
		}
		sum := AllReduce(p, g, p.ID(), func(a, b int) int { return a + b })
		if sum != 5+1+6+2+0 {
			t.Errorf("allreduce = %d", sum)
		}
	})
}

func TestGatherScrambledGroup(t *testing.T) {
	m := testMachine(8)
	g := scrambledGroup()
	m.Run(func(p *machine.Proc) {
		if !g.Contains(p.ID()) {
			return
		}
		r, _ := g.RankOf(p.ID())
		flat := GatherFlat(p, g, 0, []int{p.ID()})
		if r == 0 {
			want := []int{5, 1, 6, 2, 0} // virtual order
			for i, v := range flat {
				if v != want[i] {
					t.Errorf("gather order = %v, want %v", flat, want)
					break
				}
			}
		}
	})
}
