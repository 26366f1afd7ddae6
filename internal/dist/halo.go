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
	// Both messages are parts of one slab (see slab) that is never
	// recycled: the receivers keep them. Rows past an edge are clamped.
	s := slab[T]{buf: make([]T, 2*h*w), parts: make([]part[T], 0, 2)}
	send := func(to, first int) {
		vals := s.next(h * w)
		for r := first; r < first+h; r++ {
			copy(vals[(r-first)*w:], data[min(max(r, 0), rows-1)*w:][:w])
		}
		p.Send(l.g.Phys(to), s.part(vals), h*w*comm.ElemBytes[T]())
	}
	if rank > 0 {
		send(rank-1, 0)
	}
	if rank < size-1 {
		send(rank+1, rows-h)
	}
	if rank > 0 {
		above, _ = recvSlice[T](p, l.g.Phys(rank-1))
	}
	if rank < size-1 {
		below, _ = recvSlice[T](p, l.g.Phys(rank+1))
	}
	return above, below
}
