package dist

import (
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

func TestCopySectionBetweenSubgroups(t *testing.T) {
	// The multiblock pattern: block A's right edge column copied into block
	// B's left halo column, blocks living on disjoint subgroups.
	m := testMachine(4)
	m.Run(func(p *machine.Proc) {
		gA := group.MustNew([]int{0, 1})
		gB := group.MustNew([]int{2, 3})
		a := New[float64](p, RowBlock2D(gA, 6, 8))
		bArr := New[float64](p, RowBlock2D(gB, 6, 10))
		if a.IsMember() {
			a.FillFunc(func(idx []int) float64 { return float64(idx[0]*100 + idx[1]) })
		}
		// Copy a's last column (col 7) into b's column 0.
		CopySection(p, bArr, []int{0, 0}, a, []int{0, 7}, []int{6, 1})
		if bArr.IsMember() {
			bArr.eachLocal(func(off int, idx []int) {
				if idx[1] != 0 {
					return
				}
				want := float64(idx[0]*100 + 7)
				if bArr.Local()[off] != want {
					t.Errorf("b[%d,0] = %v, want %v", idx[0], bArr.Local()[off], want)
				}
			})
		}
	})
}

func TestCopySectionInterior(t *testing.T) {
	m := testMachine(3)
	m.Run(func(p *machine.Proc) {
		g := group.World(3)
		src := New[int64](p, RowBlock2D(g, 5, 5))
		dst := New[int64](p, RowBlock2D(g, 7, 7))
		src.FillFunc(func(idx []int) int64 { return int64(idx[0]*10 + idx[1]) })
		CopySection(p, dst, []int{2, 3}, src, []int{1, 1}, []int{3, 2})
		dst.eachLocal(func(off int, idx []int) {
			i, j := idx[0], idx[1]
			want := int64(0)
			if i >= 2 && i < 5 && j >= 3 && j < 5 {
				want = int64((i-2+1)*10 + (j - 3 + 1))
			}
			if dst.Local()[off] != want {
				t.Errorf("dst[%d,%d] = %d, want %d", i, j, dst.Local()[off], want)
			}
		})
	})
}

func TestCopySectionOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(2)
	m.Run(func(p *machine.Proc) {
		g := group.World(2)
		src := New[int64](p, RowBlock2D(g, 4, 4))
		dst := New[int64](p, RowBlock2D(g, 4, 4))
		CopySection(p, dst, []int{0, 0}, src, []int{2, 2}, []int{3, 3})
	})
}
