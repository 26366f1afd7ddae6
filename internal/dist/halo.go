package dist

import (
	"fmt"

	"fxpar/internal/comm"
	"fxpar/internal/machine"
)

// HaloRows exchanges h boundary rows of a 2D row-BLOCK array with the
// neighbouring ranks and returns the h rows just above and just below this
// processor's band (each h*width elements, row-major; nil at the global
// edges). It is the standard ghost-row pattern of stencil codes (stereo's
// window sums, multiblock relaxation).
//
// All owning processors must call it together. Trailing ranks that own no
// rows (ceil-division block layout) are excluded from the protocol. Interior
// processors must own at least h rows.
func HaloRows[T any](p *machine.Proc, a *Array[T], h int) (above, below []T) {
	l := a.Layout()
	if l.Rank() != 2 || l.dims[0].kind != Block || l.grid[0] != l.g.Size() {
		panic(fmt.Sprintf("dist: HaloRows needs a 2D row-BLOCK array, got %v", l))
	}
	if h <= 0 {
		panic(fmt.Sprintf("dist: HaloRows with h=%d", h))
	}
	data := a.local()
	if len(data) == 0 {
		return nil, nil
	}
	w := a.localShape[1]
	rows := a.localShape[0]
	// Non-empty ranks form a contiguous prefix.
	size := 0
	for r := 0; r < l.g.Size(); r++ {
		if l.LocalCount(r) > 0 {
			size++
		}
	}
	rank := a.rank
	if rank < size-1 && rows < h {
		panic(fmt.Sprintf("dist: HaloRows interior rank %d owns %d rows < halo %d", rank, rows, h))
	}
	if size == 1 {
		return nil, nil
	}
	elem := comm.ElemBytes[T]()
	clampRow := func(r int) int {
		if r < 0 {
			return 0
		}
		if r >= rows {
			return rows - 1
		}
		return r
	}
	pack := func(top bool) []T {
		buf := make([]T, 0, h*w)
		for k := 0; k < h; k++ {
			r := k
			if !top {
				r = rows - h + k
			}
			r = clampRow(r)
			buf = append(buf, data[r*w:(r+1)*w]...)
		}
		return buf
	}
	if rank > 0 {
		p.Send(l.g.Phys(rank-1), pack(true), h*w*elem)
	}
	if rank < size-1 {
		p.Send(l.g.Phys(rank+1), pack(false), h*w*elem)
	}
	if rank > 0 {
		above = recvSlice[T](p, l.g.Phys(rank-1))
	}
	if rank < size-1 {
		below = recvSlice[T](p, l.g.Phys(rank+1))
	}
	return above, below
}
