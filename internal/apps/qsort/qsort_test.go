package qsort

import (
	"cmp"
	"testing"
	"testing/quick"

	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

func testMachine(n int) *machine.Machine {
	return machine.New(n, sim.Paragon())
}

func TestRunSortsAcrossProcCounts(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 8} {
		res := Run(testMachine(procs), 500, 42)
		if !res.Sorted {
			t.Errorf("%d procs: not sorted / multiset changed", procs)
		}
	}
}

func TestSortHandlesDuplicates(t *testing.T) {
	for _, procs := range []int{1, 4} {
		m := testMachine(procs)
		var ok bool
		fx.Run(m, func(p *fx.Proc) {
			g := p.Group()
			n := 200
			a := dist.New[int64](p.Proc, dist.MustLayout(g, []int{n}, []dist.Axis{dist.BlockAxis()}, []int{g.Size()}))
			a.FillFunc(func(idx []int) int64 { return int64(idx[0] % 3) }) // heavy duplication
			Sort(p, a)
			full := dist.GatherGlobal(p.Proc, a)
			if full != nil {
				ok = true
				for i := 1; i < n; i++ {
					if full[i-1] > full[i] {
						ok = false
					}
				}
				counts := map[int64]int{}
				for _, v := range full {
					counts[v]++
				}
				for v := int64(0); v < 3; v++ {
					want := n / 3
					if int(v) < n%3 {
						want++
					}
					if counts[v] != want {
						ok = false
					}
				}
			}
		})
		if !ok {
			t.Errorf("%d procs: duplicate-heavy sort failed", procs)
		}
	}
}

func TestSortAllEqual(t *testing.T) {
	m := testMachine(4)
	fx.Run(m, func(p *fx.Proc) {
		g := p.Group()
		a := dist.New[int64](p.Proc, dist.MustLayout(g, []int{64}, []dist.Axis{dist.BlockAxis()}, []int{4}))
		a.FillFunc(func([]int) int64 { return 7 })
		Sort(p, a)
		for _, v := range a.Local() {
			if v != 7 {
				t.Errorf("all-equal sort changed a value to %d", v)
			}
		}
	})
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		m := testMachine(4)
		var ok bool
		fx.Run(m, func(p *fx.Proc) {
			g := p.Group()
			n := 128
			a := dist.New[int64](p.Proc, dist.MustLayout(g, []int{n}, []dist.Axis{dist.BlockAxis()}, []int{4}))
			a.FillFunc(func(idx []int) int64 {
				if reversed {
					return int64(n - idx[0])
				}
				return int64(idx[0])
			})
			Sort(p, a)
			sorted := IsSorted(p, a)
			if p.VP() == 0 {
				ok = sorted
			}
		})
		if !ok {
			t.Errorf("reversed=%v: not sorted", reversed)
		}
	}
}

func TestSortTinyInputs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		m := testMachine(2)
		fx.Run(m, func(p *fx.Proc) {
			g := p.Group()
			a := dist.New[int64](p.Proc, dist.MustLayout(g, []int{n}, []dist.Axis{dist.BlockAxis()}, []int{2}))
			a.FillFunc(func(idx []int) int64 { return int64(-idx[0]) })
			Sort(p, a)
			if !IsSorted(p, a) && p.VP() == 0 {
				t.Errorf("n=%d: not sorted", n)
			}
		})
	}
}

func TestSortProperty(t *testing.T) {
	f := func(seed int64, nSeed uint8, pSeed uint8) bool {
		n := int(nSeed)%300 + 1
		procs := int(pSeed)%6 + 1
		res := Run(testMachine(procs), n, seed)
		return res.Sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParallelSortFasterThanSequential(t *testing.T) {
	n := 20000
	seq := Run(testMachine(1), n, 7)
	par := Run(testMachine(8), n, 7)
	if !seq.Sorted || !par.Sorted {
		t.Fatal("sort failed")
	}
	if par.Makespan >= seq.Makespan {
		t.Errorf("8-proc sort (%.4fs) not faster than sequential (%.4fs)", par.Makespan, seq.Makespan)
	}
}

func TestComputeSubgroupSizes(t *testing.T) {
	cases := []struct {
		np, nLess, nGr, want int
	}{
		{4, 50, 50, 2},
		{4, 1, 99, 1},  // at least one processor
		{4, 99, 1, 3},  // at most np-1
		{2, 100, 1, 1}, // clamped
		{8, 30, 10, 6}, // proportional
	}
	for _, tc := range cases {
		if got := computeSubgroupSizes(tc.np, tc.nLess, tc.nGr); got != tc.want {
			t.Errorf("computeSubgroupSizes(%d,%d,%d) = %d, want %d", tc.np, tc.nLess, tc.nGr, got, tc.want)
		}
	}
}

func TestDeterministicMakespan(t *testing.T) {
	a := Run(testMachine(4), 1000, 3)
	b := Run(testMachine(4), 1000, 3)
	if a.Makespan != b.Makespan {
		t.Errorf("makespan differs: %g vs %g", a.Makespan, b.Makespan)
	}
}

// IsSorted checks order of a block-distributed array: each processor checks
// its local run and the boundary with its right neighbour, and the verdicts
// are combined across the group.
func IsSorted[T cmp.Ordered](p *fx.Proc, a *dist.Array[T]) bool {
	g := a.Layout().Group()
	if a.Rank() < 0 {
		return true
	}
	local := a.Local()
	ok := 1
	for i := 1; i < len(local); i++ {
		if local[i-1] > local[i] {
			ok = 0
		}
	}
	// Boundary exchange: send my first element left.
	size := 0
	for r := 0; r < g.Size(); r++ {
		if a.Layout().LocalCount(r) > 0 {
			size++
		}
	}
	rank := a.Rank()
	if rank < size && len(local) > 0 {
		if rank > 0 {
			comm.Send(p.Proc, g, rank-1, []T{local[0]})
		}
		if rank < size-1 {
			next := comm.Recv[T](p.Proc, g, rank+1)
			if local[len(local)-1] > next[0] {
				ok = 0
			}
		}
	}
	return comm.AllReduce(p.Proc, g, ok, func(x, y int) int { return x * y }) == 1
}
