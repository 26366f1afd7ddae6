package dist

import (
	"fmt"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// PackInto implements the irregular redistribution behind the paper's
// quicksort (Figure 4): it copies the elements of the 1D block-distributed
// src that satisfy keep, in global order, into dst starting at global index
// dstStart, and returns the number of elements copied. keep == nil keeps
// everything (a plain section copy, used by merge_result).
//
// Both arrays must be 1D BLOCK-distributed (local order is then global
// order). Source and destination may live on different — even disjoint —
// subgroups. Every member of either group must call it; a processor in
// neither group may call it too, and gets 0 back without communicating.
func PackInto[T any](p *machine.Proc, dst, src *Array[T], dstStart int, keep func(T) bool) int {
	check1DBlock(src.l, "PackInto source")
	check1DBlock(dst.l, "PackInto destination")
	isSrc := src.rank >= 0
	isDst := dst.rank >= 0
	if !isSrc && !isDst {
		return 0
	}
	u := group.Union(src.l.g, dst.l.g)
	srcData, dstData := src.local(), dst.local()

	// Count kept elements per source rank and share the vector with every
	// participant: gather to the source group's rank 0, then broadcast over
	// the union group.
	srcSize := src.l.g.Size()
	var counts []int
	if isSrc {
		cnt := 0
		if keep == nil {
			cnt = len(srcData)
		} else {
			for _, v := range srcData {
				if keep(v) {
					cnt++
				}
			}
		}
		counts = comm.GatherFlat(p, src.l.g, 0, []int{cnt})
	}
	rootU, ok := u.RankOf(src.l.g.Phys(0))
	if !ok {
		panic("dist: union group missing source root")
	}
	counts = comm.Bcast(p, u, rootU, counts)
	sc := getScratch(srcSize+1, 0)
	defer scratchPool.Put(sc)
	prefix := sc.ints
	for i, c := range counts {
		prefix[i+1] = prefix[i] + c
	}
	total := prefix[srcSize]
	if dstStart+total > dst.l.shape[0] {
		panic(fmt.Sprintf("dist: PackInto writes [%d,%d) into destination of length %d",
			dstStart, dstStart+total, dst.l.shape[0]))
	}

	myID := p.ID()
	dstDim := dst.l.dims[0]

	// placeLocal copies vals into dst's local storage for the global range
	// [gLo, gLo+len(vals)), which is contiguous in local storage for BLOCK.
	placeLocal := func(gLo int, vals []T) {
		if len(vals) == 0 {
			return
		}
		lo := dstDim.localOf(gLo)
		copy(dstData[lo:lo+len(vals)], vals)
	}

	if isSrc && counts[src.rank] > 0 {
		gLo := dstStart + prefix[src.rank]
		gHi := gLo + counts[src.rank]
		// The kept elements are one slab (see slab); each message is a part
		// of it, to the destination block owners in ascending order.
		s := newSlab[T](gHi-gLo, (gHi-1)/dstDim.b-gLo/dstDim.b+1)
		kept := s.next(gHi - gLo)[:0]
		for _, v := range srcData {
			if keep == nil || keep(v) {
				kept = append(kept, v)
			}
		}
		for r := 0; r < dst.l.g.Size(); r++ {
			lo, hi := max(gLo, r*dstDim.b), min(gHi, (r+1)*dstDim.b, dst.l.shape[0])
			if lo >= hi {
				continue
			}
			seg := kept[lo-gLo : hi-gLo : hi-gLo]
			if dst.l.g.Phys(r) == myID {
				placeLocal(lo, seg)
			} else {
				p.Send(dst.l.g.Phys(r), s.part(seg), len(seg)*comm.ElemBytes[T]())
			}
		}
		s.release()
	}

	if isDst && len(dstData) > 0 {
		myLo, myHi := dst.rank*dstDim.b, min((dst.rank+1)*dstDim.b, dst.l.shape[0])
		for s := 0; s < srcSize; s++ {
			gLo := dstStart + prefix[s]
			gHi := gLo + counts[s]
			lo, hi := max(gLo, myLo), min(gHi, myHi)
			if lo >= hi {
				continue
			}
			if src.l.g.Phys(s) == myID {
				continue // placed locally in the sender phase
			}
			vals, from := recvSlice[T](p, src.l.g.Phys(s))
			if len(vals) != hi-lo {
				panic(fmt.Sprintf("dist: PackInto expected %d elements from source rank %d, got %d", hi-lo, s, len(vals)))
			}
			placeLocal(lo, vals)
			from.release()
		}
	}
	return total
}

// CopyRange1D copies all of src into dst[dstStart : dstStart+len(src)] —
// the section assignment used by the paper's merge_result.
func CopyRange1D[T any](p *machine.Proc, dst *Array[T], dstStart int, src *Array[T]) {
	PackInto(p, dst, src, dstStart, nil)
}

// FillRange1D sets dst[lo:hi) to v; owners fill locally, no communication.
func FillRange1D[T any](dst *Array[T], lo, hi int, v T) {
	check1DBlock(dst.l, "FillRange1D destination")
	data := dst.local()
	if len(data) == 0 {
		return
	}
	d := dst.l.dims[0]
	lo, hi = max(lo, dst.rank*d.b), min(hi, (dst.rank+1)*d.b, dst.l.shape[0])
	for i := lo; i < hi; i++ {
		data[d.localOf(i)] = v
	}
}

func check1DBlock(l *Layout, what string) {
	if l.Rank() != 1 || l.dims[0].kind != Block {
		panic(fmt.Sprintf("dist: %s must be a 1D BLOCK array, got %v", what, l))
	}
}
