package dist

import (
	"slices"
	"testing"
)

// FuzzSideSplit: on layout pairs drawn by genCase (whole arrays, identity
// or permuted dimensions) and genSectionCase (boxes at offsets), aligned
// arrays among both, every BLOCK or collapsed peer axis that newSide splits
// in its ordered pass ends up with the offsets and ends the counting sort
// gives, on both sides of the remap and on every rank that owns elements.
func FuzzSideSplit(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, section bool) {
		var src, dst *Layout
		var srcOff, dstOff, box, perm []int
		if section {
			c := genSectionCase(seed, 0)
			src, dst, srcOff, dstOff, box = c.src(), c.dst(), c.srcOff, c.dstOff, c.box
			perm = identity[:len(box)]
		} else {
			c := genCase(seed, 0)
			src, dst, perm = c.src(), c.dst(), c.perm
		}
		ident := identity[:len(perm)]
		checkSideSplit(t, src, perm, srcOff, dst, ident, dstOff, box)
		checkSideSplit(t, dst, ident, dstOff, src, perm, srcOff, box)
	})
}

// checkSideSplit holds every rank of me with elements to newSide's split
// against peer (arguments as newSide's) matching the counting sort on each
// BLOCK or collapsed peer axis.
func checkSideSplit(t *testing.T, me *Layout, myAxis, myOff []int, peer *Layout, peerAxis, peerOff, box []int) {
	t.Helper()
	for r := 0; r < me.g.Size(); r++ {
		if me.LocalCount(r) == 0 {
			continue
		}
		shape := me.LocalShape(r)
		ints, lists := make([]int, sideInts(true, shape, peer)), make([][]int, 3*len(myAxis))
		s := newSide(ints, lists, me, r, shape, myAxis, myOff, peer, peerAxis, peerOff, box)
		for d, a := range myAxis {
			x := axisSplit{md: me.dims[a], pd: peer.dims[peerAxis[d]], c: me.coord(r, a), stride: 1, hi: me.dims[a].n}
			if x.pd.kind != Block && x.pd.kind != Collapsed {
				continue
			}
			for _, e := range shape[a+1:] {
				x.stride *= e
			}
			if box != nil {
				x.lo, x.hi, x.shift = myOff[a], myOff[a]+box[d], peerOff[peerAxis[d]]-myOff[a]
			}
			end, offs := make([]int, x.pd.q), make([]int, shape[a])
			offs = offs[:x.counting(end, offs)]
			if !slices.Equal(s.offs[d], offs) || !slices.Equal(s.end[d], end) {
				t.Fatalf("%v rank %d against %v, dimension %d (box %v, offsets %v/%v, axes %v/%v): ordered offs %v end %v, counting sort offs %v end %v",
					me, r, peer, d, box, myOff, peerOff, myAxis, peerAxis, s.offs[d], s.end[d], offs, end)
			}
		}
	}
}
