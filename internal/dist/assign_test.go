package dist

import (
	"testing"
	"testing/quick"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

func testMachine(n int) *machine.Machine {
	return machine.New(n, sim.CostModel{
		FlopRate: 1e6, Alpha: 1e-4, Beta: 1e-7, SendOverhead: 1e-5, IORate: 1e6,
	})
}

// fillSeq fills an array with a deterministic function of the global index.
func fillSeq(a *Array[float64]) {
	a.FillFunc(func(idx []int) float64 {
		v := 0.0
		for _, x := range idx {
			v = v*1000 + float64(x)
		}
		return v
	})
}

func verifySeq(t *testing.T, p *machine.Proc, a *Array[float64], transposed bool) {
	t.Helper()
	if !a.IsMember() {
		return
	}
	a.eachLocal(func(off int, idx []int) {
		want := 0.0
		if transposed {
			for d := len(idx) - 1; d >= 0; d-- {
				want = want*1000 + float64(idx[d])
			}
		} else {
			for _, x := range idx {
				want = want*1000 + float64(x)
			}
		}
		if a.Local()[off] != want {
			t.Errorf("proc %d: element %v = %v, want %v", p.ID(), idx, a.Local()[off], want)
		}
	})
}

func TestArrayBasics(t *testing.T) {
	m := testMachine(4)
	m.Run(func(p *machine.Proc) {
		g := group.World(4)
		a := New[float64](p, RowBlock2D(g, 8, 4))
		if !a.IsMember() {
			t.Fatalf("proc %d not a member", p.ID())
		}
		row0 := p.ID() * 2
		if a.l.OwnerRank(row0, 0) != a.rank {
			t.Errorf("proc %d should own row %d", p.ID(), row0)
		}
		a.Set(42.0, row0, 3)
		if got := a.At(row0, 3); got != 42.0 {
			t.Errorf("At = %v", got)
		}
		if a.localShape[0] != 2 {
			t.Errorf("local rows = %d", a.localShape[0])
		}
		if got := a.GlobalRowOfLocal(1); got != row0+1 {
			t.Errorf("GlobalRowOfLocal(1) = %d", got)
		}
		r := a.Local()[:a.localShape[1]]
		if len(r) != 4 || r[3] != 42.0 {
			t.Errorf("LocalRow = %v", r)
		}
	})
}

func TestAtNonOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(2)
	m.Run(func(p *machine.Proc) {
		a := New[int](p, MustLayout(group.World(2), []int{4}, []Axis{BlockAxis()}, []int{2}))
		a.At(0) // owned by rank 0 only; rank 1 panics
	})
}

func TestNonMemberDescriptor(t *testing.T) {
	m := testMachine(4)
	m.Run(func(p *machine.Proc) {
		sub := group.MustNew([]int{0, 1})
		a := New[int](p, MustLayout(sub, []int{10}, []Axis{BlockAxis()}, []int{2}))
		if p.ID() >= 2 {
			if a.IsMember() || a.Local() != nil || a.Rank() != -1 {
				t.Errorf("proc %d should be a bare descriptor", p.ID())
			}
			a.FillFunc(func([]int) int { return 1 }) // must be a no-op
		} else if len(a.Local()) != 5 {
			t.Errorf("proc %d local size %d", p.ID(), len(a.Local()))
		}
	})
}

// redistCase runs dst=src between two layouts and verifies contents.
func redistCase(t *testing.T, nProcs int, mk func(p *machine.Proc) (dst, src *Array[float64])) {
	t.Helper()
	m := testMachine(nProcs)
	m.Run(func(p *machine.Proc) {
		dst, src := mk(p)
		fillSeq(src)
		Assign(p, dst, src)
		verifySeq(t, p, dst, false)
	})
}

func TestAssignSameGroupBlockToCyclic(t *testing.T) {
	redistCase(t, 4, func(p *machine.Proc) (*Array[float64], *Array[float64]) {
		g := group.World(4)
		src := New[float64](p, MustLayout(g, []int{17}, []Axis{BlockAxis()}, []int{4}))
		dst := New[float64](p, MustLayout(g, []int{17}, []Axis{CyclicAxis()}, []int{4}))
		return dst, src
	})
}

func TestAssignDisjointSubgroups(t *testing.T) {
	// The pipeline statement A2 = A1 of Figure 2: source on procs {0,1},
	// destination on procs {2,3,4}.
	redistCase(t, 6, func(p *machine.Proc) (*Array[float64], *Array[float64]) {
		g1 := group.MustNew([]int{0, 1})
		g2 := group.MustNew([]int{2, 3, 4})
		src := New[float64](p, RowBlock2D(g1, 8, 5))
		dst := New[float64](p, RowBlock2D(g2, 8, 5))
		return dst, src
	})
}

func TestAssignOverlappingGroups(t *testing.T) {
	redistCase(t, 4, func(p *machine.Proc) (*Array[float64], *Array[float64]) {
		g1 := group.MustNew([]int{0, 1, 2})
		g2 := group.MustNew([]int{1, 2, 3})
		src := New[float64](p, MustLayout(g1, []int{11}, []Axis{BlockAxis()}, []int{3}))
		dst := New[float64](p, MustLayout(g2, []int{11}, []Axis{CyclicAxis()}, []int{3}))
		return dst, src
	})
}

func TestAssignBlockCyclicMix(t *testing.T) {
	redistCase(t, 4, func(p *machine.Proc) (*Array[float64], *Array[float64]) {
		g := group.World(4)
		src := New[float64](p, MustLayout(g, []int{23}, []Axis{BlockCyclicAxis(3)}, []int{4}))
		dst := New[float64](p, MustLayout(g, []int{23}, []Axis{BlockCyclicAxis(5)}, []int{4}))
		return dst, src
	})
}

func TestAssign2DRowToColBlock(t *testing.T) {
	redistCase(t, 4, func(p *machine.Proc) (*Array[float64], *Array[float64]) {
		g := group.World(4)
		src := New[float64](p, RowBlock2D(g, 9, 7))
		dst := New[float64](p, ColBlock2D(g, 9, 7))
		return dst, src
	})
}

func TestAssignSameLayoutIsLocal(t *testing.T) {
	m := testMachine(4)
	stats := m.Run(func(p *machine.Proc) {
		g := group.World(4)
		src := New[float64](p, RowBlock2D(g, 8, 4))
		dst := New[float64](p, RowBlock2D(g, 8, 4))
		fillSeq(src)
		Assign(p, dst, src)
		verifySeq(t, p, dst, false)
	})
	for _, ps := range stats.Procs {
		if ps.MsgsSent != 0 {
			t.Errorf("proc %d sent %d messages for an identical-layout assign", ps.ID, ps.MsgsSent)
		}
	}
}

func TestAssignMinimalSubsetSkips(t *testing.T) {
	// A processor in neither group must not synchronize or advance its
	// clock — Section 4's minimal processor subsets.
	m := testMachine(5)
	stats := m.Run(func(p *machine.Proc) {
		g1 := group.MustNew([]int{0, 1})
		g2 := group.MustNew([]int{2, 3})
		src := New[float64](p, RowBlock2D(g1, 4, 4))
		dst := New[float64](p, RowBlock2D(g2, 4, 4))
		fillSeq(src)
		Assign(p, dst, src)
	})
	outsider := stats.Procs[4]
	if outsider.Finish != 0 || outsider.MsgsSent != 0 {
		t.Errorf("outsider participated: finish=%g msgs=%d", outsider.Finish, outsider.MsgsSent)
	}
}

func TestTranspose2D(t *testing.T) {
	m := testMachine(4)
	m.Run(func(p *machine.Proc) {
		g := group.World(4)
		src := New[float64](p, RowBlock2D(g, 8, 6))
		dst := New[float64](p, RowBlock2D(g, 6, 8))
		fillSeq(src)
		Transpose2D(p, dst, src)
		// dst[i][j] must equal src[j][i] = j*1000 + i.
		dst.eachLocal(func(off int, idx []int) {
			want := float64(idx[1])*1000 + float64(idx[0])
			if dst.Local()[off] != want {
				t.Errorf("proc %d: dst%v = %v, want %v", p.ID(), idx, dst.Local()[off], want)
			}
		})
	})
}

func TestTransposeSquareInverse(t *testing.T) {
	// Transposing twice must reproduce the original, across different
	// group sizes including non-dividing ones.
	for _, n := range []int{1, 2, 3, 4, 7} {
		m := testMachine(n)
		m.Run(func(p *machine.Proc) {
			g := group.World(n)
			a := New[float64](p, RowBlock2D(g, 12, 12))
			b := New[float64](p, RowBlock2D(g, 12, 12))
			c := New[float64](p, RowBlock2D(g, 12, 12))
			fillSeq(a)
			Transpose2D(p, b, a)
			Transpose2D(p, c, b)
			a.eachLocal(func(off int, idx []int) {
				if c.Local()[off] != a.Local()[off] {
					t.Errorf("n=%d proc %d: double transpose differs at %v", n, p.ID(), idx)
				}
			})
		})
	}
}

func TestGatherScatterGlobal(t *testing.T) {
	m := testMachine(4)
	m.Run(func(p *machine.Proc) {
		g := group.World(4)
		a := New[float64](p, MustLayout(g, []int{3, 5}, []Axis{CyclicAxis(), BlockAxis()}, []int{2, 2}))
		fillSeq(a)
		full := GatherGlobal(p, a)
		if a.Rank() == 0 {
			for i := 0; i < 3; i++ {
				for j := 0; j < 5; j++ {
					want := float64(i)*1000 + float64(j)
					if full[i*5+j] != want {
						t.Errorf("full[%d,%d] = %v, want %v", i, j, full[i*5+j], want)
					}
				}
			}
		} else if full != nil {
			t.Error("non-root got data")
		}
		// Round trip through a second array.
		b := New[float64](p, RowBlock2D(g, 3, 5))
		ScatterGlobal(p, b, full)
		verifySeq(t, p, b, false)
	})
}

// Property: Assign preserves all data for random layout pairs.
func TestAssignPreservesDataProperty(t *testing.T) {
	axisChoices := []Axis{BlockAxis(), CyclicAxis(), BlockCyclicAxis(2), BlockCyclicAxis(3)}
	f := func(nSeed, aSeed, bSeed, splitSeed uint8) bool {
		n := int(nSeed)%40 + 1
		nProcs := 4
		m := testMachine(nProcs)
		ok := true
		m.Run(func(p *machine.Proc) {
			// Source on first k procs, dest on the rest (or overlapping).
			k := int(splitSeed)%3 + 1 // 1..3
			g1 := group.World(nProcs).Subrange(0, k)
			g2 := group.World(nProcs).Subrange(k-1, nProcs) // overlap by one
			la := MustLayout(g1, []int{n}, []Axis{axisChoices[int(aSeed)%4]}, []int{g1.Size()})
			lb := MustLayout(g2, []int{n}, []Axis{axisChoices[int(bSeed)%4]}, []int{g2.Size()})
			src := New[float64](p, la)
			dst := New[float64](p, lb)
			fillSeq(src)
			Assign(p, dst, src)
			if dst.IsMember() {
				dst.eachLocal(func(off int, idx []int) {
					if dst.Local()[off] != float64(idx[0]) {
						ok = false
					}
				})
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAssignShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(2)
	m.Run(func(p *machine.Proc) {
		g := group.World(2)
		src := New[float64](p, MustLayout(g, []int{4}, []Axis{BlockAxis()}, []int{2}))
		dst := New[float64](p, MustLayout(g, []int{5}, []Axis{BlockAxis()}, []int{2}))
		Assign(p, dst, src)
	})
}

func TestAssignFullGroupSynchronizes(t *testing.T) {
	// AssignFullGroup (the ablation) must produce the same data but force
	// participation of all union members.
	m := testMachine(4)
	stats := m.Run(func(p *machine.Proc) {
		g1 := group.MustNew([]int{0, 1})
		g2 := group.MustNew([]int{2, 3})
		src := New[float64](p, RowBlock2D(g1, 4, 4))
		dst := New[float64](p, RowBlock2D(g2, 4, 4))
		fillSeq(src)
		AssignFullGroup(p, dst, src)
		verifySeq(t, p, dst, false)
	})
	for _, ps := range stats.Procs {
		if ps.MsgsSent == 0 {
			t.Errorf("proc %d did not participate in the synchronizing assign", ps.ID)
		}
	}
}

// AssignFullGroup is the ablation counterpart of Assign: it performs the
// same data movement but makes *every* processor of the union of both
// groups synchronize on a barrier afterwards, modeling an implementation
// that cannot identify minimal processor subsets. Section 4 predicts this
// destroys pipelined task parallelism; BenchmarkAblationAssign
// demonstrates it.
func AssignFullGroup[T any](p *machine.Proc, dst, src *Array[T]) {
	u := group.Union(src.l.g, dst.l.g)
	Assign(p, dst, src)
	if u.Contains(p.ID()) {
		comm.Barrier(p, u)
	}
}
