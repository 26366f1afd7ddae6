package dist

import (
	"slices"
	"sync"
)

// Communication sets in closed form.
//
// In dst[dstOff+I] = src[srcOff+J] with J[perm[d]] = I[d] over a box of I,
// ownership is decided one axis at a time (dim.ownerOf), so the elements one
// (sender, receiver) pair exchanges are a cross product: along destination
// dimension d, the in-box indices my grid coordinate owns in my layout and
// the peer's coordinate owns, shifted by the offset difference, in its
// layout. A side holds that split for every destination dimension;
// copyParts walks one pair's cross product in destination row-major order.

// side is one processor's half of a remap: its local indices along every
// destination dimension, grouped by the peer grid coordinate that owns the
// same global index.
type side struct {
	peer     *Layout
	peerAxis []int // peer axis of destination dimension d
	// offs[d] lists my in-box local offsets (local index × local stride)
	// along destination dimension d, stably sorted by owning peer
	// coordinate; the ones coordinate c owns end at end[d][c] and start
	// where c-1's end.
	offs, end [][]int
	// parts is the current peer's part per destination dimension (peerParts
	// sets it) and idx copyParts' odometer, all zeros between calls.
	parts [][]int
	idx   []int
}

// sideInts is the scratch ints newSide needs for local extents shape
// against peer, in any axis order; 0 unless take. Lists take 3·len(shape).
func sideInts(take bool, shape []int, peer *Layout) int {
	n := 0
	for d := 0; take && d < len(shape); d++ {
		n += 1 + shape[d] + peer.grid[d]
	}
	return n
}

// scratch is what one remap or PackInto call borrows from scratchPool and
// returns when it ends: calls reuse index arrays instead of allocating
// them, and none are kept per array or per processor.
type scratch struct {
	ints  []int
	lists [][]int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch borrows scratch of n zeroed ints and k lists.
func getScratch(n, k int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.ints, s.lists = slices.Grow(s.ints[:0], n)[:n], slices.Grow(s.lists[:0], k)[:k]
	clear(s.ints)
	return s
}

// newSide splits rank's local index space (extents shape) of layout me
// against peer in the zeroed arrays ints and lists (see sideInts), which the
// two sides of a remap share. myAxis[d] and peerAxis[d] are the axes of me
// and peer that destination dimension d ranges over. A nil box takes every
// index; else only global indices in [myOff[a], myOff[a]+box[d]) count, and
// the peer's index is mine minus myOff[a] plus peerOff[peerAxis[d]]. A
// BLOCK or collapsed peer axis splits in one ordered pass, a CYCLIC or
// BLOCK_CYCLIC one by counting sort: O(local extent + peer grid extent)
// per axis either way, whatever the peer count.
func newSide(ints []int, lists [][]int, me *Layout, rank int, shape, myAxis, myOff []int, peer *Layout, peerAxis, peerOff, box []int) side {
	nd := len(myAxis)
	s := side{peer: peer, peerAxis: peerAxis,
		offs: lists[:nd], end: lists[nd : 2*nd], parts: lists[2*nd : 3*nd], idx: ints[:nd]}
	ints = ints[nd:]
	for d, a := range myAxis {
		x := axisSplit{md: me.dims[a], pd: peer.dims[peerAxis[d]], c: me.coord(rank, a), stride: 1, hi: me.dims[a].n}
		for _, e := range shape[a+1:] {
			x.stride *= e
		}
		if box != nil {
			x.lo, x.hi, x.shift = myOff[a], myOff[a]+box[d], peerOff[peerAxis[d]]-myOff[a]
		}
		end, offs := ints[:x.pd.q], ints[x.pd.q:x.pd.q+shape[a]]
		ints = ints[x.pd.q+shape[a]:]
		s.end[d], s.offs[d] = end, offs[:x.split(end, offs)]
	}
	return s
}

// axisSplit is one axis of newSide: my local indices l < len(offs) on
// coordinate c of md whose global index g lies in [lo, hi), grouped by the
// coordinate of pd that owns g+shift. split and counting write their
// offsets l·stride to offs, those coordinate k owns ending at end[k] and
// starting where k-1's end, and return how many there are.
type axisSplit struct {
	md, pd                   dim
	c, stride, lo, hi, shift int
}

// split sorts by counting against a CYCLIC or BLOCK_CYCLIC pd. A BLOCK or
// collapsed pd's owner never decreases as g grows, and g grows with l: one
// pass writes offs in local order, and k's part ends at the first g+shift
// past k's interval.
func (x axisSplit) split(end, offs []int) int {
	if x.pd.kind == Cyclic || x.pd.kind == BlockCyclic {
		return x.counting(end, offs)
	}
	in, k := 0, 0
	for l := range offs {
		if g := x.md.globalOf(x.c, l); g >= x.lo && g < x.hi {
			for ; k < len(end)-1 && g+x.shift >= (k+1)*x.pd.b-x.pd.off; k++ {
				end[k] = in
			}
			offs[in] = l * x.stride
			in++
		}
	}
	for ; k < len(end); k++ {
		end[k] = in
	}
	return in
}

// counting splits against any pd, a stable counting sort by owner; end
// must be zeros.
func (x axisSplit) counting(end, offs []int) int {
	for l := range offs {
		if g := x.md.globalOf(x.c, l); g >= x.lo && g < x.hi {
			end[x.pd.ownerOf(g+x.shift)]++
		}
	}
	in := 0
	for k, cnt := range end {
		end[k] = in
		in += cnt
	}
	for l := range offs {
		if g := x.md.globalOf(x.c, l); g >= x.lo && g < x.hi {
			k := x.pd.ownerOf(g + x.shift)
			offs[end[k]] = l * x.stride
			end[k]++
		}
	}
	return in
}

// peerParts selects what I exchange with peer rank r — s.parts, one part
// per destination dimension — and returns its element count.
func (s *side) peerParts(r int) int {
	n := 1
	for d, a := range s.peerAxis {
		c := s.peer.coord(r, a)
		lo := 0
		if c > 0 {
			lo = s.end[d][c-1]
		}
		s.parts[d] = s.offs[d][lo:s.end[d][c]]
		n *= len(s.parts[d])
	}
	return n
}

// copyParts performs dst[Σ dp[d][i_d]] = src[Σ sp[d][i_d]] over the cross
// product of the parts, i_0 outermost: destination row-major order on both
// sides. A nil part list stands for a packed message, whose k-th element is
// the k-th visited; a nil src with nil sp for zeros. The parts must be
// non-empty, of equal lengths on both sides, and idx all zeros (it is again
// on return). Where the innermost parts are stride-1 runs the elements move
// by copy.
func copyParts[T any](dst []T, dp [][]int, src []T, sp [][]int, idx []int) {
	shape := dp
	if shape == nil {
		shape = sp
	}
	last := len(shape) - 1
	n := len(shape[last])
	var di, si []int
	if dp != nil {
		di = dp[last]
	}
	if sp != nil {
		si = sp[last]
	}
	runs := (di == nil || di[n-1]-di[0] == n-1) && (si == nil || si[n-1]-si[0] == n-1)
	for k := 0; ; k += n {
		db, sb := k, k
		if dp != nil {
			db = 0
			for d, i := range idx[:last] {
				db += dp[d][i]
			}
		}
		if sp != nil {
			sb = 0
			for d, i := range idx[:last] {
				sb += sp[d][i]
			}
		}
		switch {
		case src == nil:
			for _, o := range di {
				dst[db+o] = *new(T)
			}
		case runs:
			if di != nil {
				db += di[0]
			}
			if si != nil {
				sb += si[0]
			}
			copy(dst[db:db+n], src[sb:sb+n])
		case di == nil:
			out := dst[db : db+n]
			for i, o := range si {
				out[i] = src[sb+o]
			}
		case si == nil:
			in := src[sb : sb+n]
			for i, o := range di {
				dst[db+o] = in[i]
			}
		default:
			for i, o := range di {
				dst[db+o] = src[sb+si[i]]
			}
		}
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < len(shape[d]) {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}
