package dist

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

// sideInts is the index array length newSide needs for local extents shape
// against peer, in any axis order; 0 unless take. Lists take 3·len(shape).
func sideInts(take bool, shape []int, peer *Layout) int {
	n := 0
	for d := 0; take && d < len(shape); d++ {
		n += 1 + shape[d] + peer.grid[d]
	}
	return n
}

// newSide splits rank's local index space (extents shape) of layout me
// against peer in the zeroed arrays ints and lists (see sideInts), which the
// two sides of a remap share. myAxis[d] and peerAxis[d] are the axes of me
// and peer that destination dimension d ranges over. A nil box takes every
// index; else only global indices in [myOff[a], myOff[a]+box[d]) count, and
// the peer's index is mine minus myOff[a] plus peerOff[peerAxis[d]]. The
// cost is O(Σ local extents + Σ peer grid extents), whatever the peer count.
func newSide(ints []int, lists [][]int, me *Layout, rank int, shape, myAxis, myOff []int, peer *Layout, peerAxis, peerOff, box []int) side {
	nd := len(myAxis)
	s := side{peer: peer, peerAxis: peerAxis,
		offs: lists[:nd], end: lists[nd : 2*nd], parts: lists[2*nd : 3*nd], idx: ints[:nd]}
	ints = ints[nd:]
	for d, a := range myAxis {
		md, pd := me.dims[a], peer.dims[peerAxis[d]]
		c := me.coord(rank, a)
		stride := 1
		for _, e := range shape[a+1:] {
			stride *= e
		}
		lo, hi, shift := 0, md.n, 0
		if box != nil {
			lo, hi, shift = myOff[a], myOff[a]+box[d], peerOff[peerAxis[d]]-myOff[a]
		}
		// Counting sort of my in-box local indices by owning peer coordinate.
		end, in := ints[:pd.q], 0
		for l := 0; l < shape[a]; l++ {
			if g := md.globalOf(c, l); g >= lo && g < hi {
				end[pd.ownerOf(g+shift)]++
				in++
			}
		}
		offs := ints[pd.q : pd.q+in]
		ints = ints[pd.q+shape[a]:]
		sum := 0
		for k, cnt := range end {
			end[k] = sum
			sum += cnt
		}
		for l := 0; l < shape[a]; l++ {
			if g := md.globalOf(c, l); g >= lo && g < hi {
				k := pd.ownerOf(g + shift)
				offs[end[k]] = l * stride
				end[k]++
			}
		}
		s.offs[d], s.end[d] = offs, end
	}
	return s
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
// the k-th visited. The parts must be non-empty, of equal lengths on both
// sides, and idx all zeros (it is again on return). Where the innermost
// parts are stride-1 runs the elements move by copy.
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
