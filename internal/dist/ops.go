package dist

import (
	"fmt"

	"fxpar/internal/comm"
	"fxpar/internal/machine"
)

// Remap copies elements of src into dst under an arbitrary (partial) index
// mapping: for every source index S, mapIdx may fill dst index D (returning
// true) or skip the element (returning false). It generalizes Assign,
// Transpose2D and the HPF shift/section operations. Unmapped destination
// elements are left untouched.
//
// Matching protocol: the sender enumerates its own source elements in local
// row-major order; the receiver reproduces, for every source rank, that
// rank's enumeration from the layout alone. Both therefore agree on the
// per-pair element sequence without index headers. The receiver pass costs
// O(global source size / receivers) per receiver in the worst case; the
// structured operations below keep sections small where it matters.
//
// mapIdx must be deterministic and must not retain its argument slices
// (they are reused across calls). Participation is minimal: processors
// owning neither source nor destination return immediately.
func Remap[T any](p *machine.Proc, dst, src *Array[T], mapIdx func(srcIdx []int, dstIdx []int) bool) {
	isSender := src.rank >= 0
	isReceiver := dst.rank >= 0
	if !isSender && !isReceiver {
		return
	}
	elemBytes := comm.ElemBytes[T]()
	myID := p.ID()
	nd := dst.l.Rank()
	dstIdx := make([]int, nd)

	if isSender {
		buckets := make(map[int][]T)
		src.eachLocal(func(off int, srcIdx []int) {
			if !mapIdx(srcIdx, dstIdx) {
				return
			}
			r := dst.l.OwnerRank(dstIdx...)
			if dst.l.g.Phys(r) == myID {
				// Local path: place immediately (the receiver pass below
				// skips self pairs).
				dst.data[dst.l.localOffset(dstIdx, dst.localShape)] = src.data[off]
				return
			}
			buckets[r] = append(buckets[r], src.data[off])
		})
		for r := 0; r < dst.l.g.Size(); r++ {
			if vals := buckets[r]; len(vals) > 0 {
				p.Send(dst.l.g.Phys(r), vals, len(vals)*elemBytes)
			}
		}
	}

	if isReceiver && len(dst.data) > 0 {
		var offs []int
		for s := 0; s < src.l.g.Size(); s++ {
			if src.l.g.Phys(s) == myID {
				continue // local path handled on the sender side
			}
			// Destination offsets expected from s, in s's enumeration order.
			offs = offs[:0]
			src.l.eachLocalOf(s, func(_ int, srcIdx []int) {
				if mapIdx(srcIdx, dstIdx) && dst.l.OwnerRank(dstIdx...) == dst.rank {
					offs = append(offs, dst.l.localOffset(dstIdx, dst.localShape))
				}
			})
			if len(offs) == 0 {
				continue
			}
			vals := recvSlice[T](p, src.l.g.Phys(s))
			if len(vals) != len(offs) {
				panic(fmt.Sprintf("dist: Remap expected %d elements from rank %d, got %d", len(offs), s, len(vals)))
			}
			for i, off := range offs {
				dst.data[off] = vals[i]
			}
		}
	}
}

// CShift implements HPF's CSHIFT: dst[..., i, ...] = src[..., (i+shift) mod
// n, ...] along the given axis. Shapes and ranks must match.
func CShift[T any](p *machine.Proc, dst, src *Array[T], axis, shift int) {
	checkShiftArgs(dst, src, axis)
	n := src.l.shape[axis]
	shift = ((shift % n) + n) % n
	Remap(p, dst, src, func(srcIdx, dstIdx []int) bool {
		copy(dstIdx, srcIdx)
		dstIdx[axis] = ((srcIdx[axis]-shift)%n + n) % n
		return true
	})
}

// EOShift implements HPF's EOSHIFT: elements shifted past the edge are
// dropped and vacated positions take the boundary value.
func EOShift[T any](p *machine.Proc, dst, src *Array[T], axis, shift int, boundary T) {
	checkShiftArgs(dst, src, axis)
	n := src.l.shape[axis]
	// Pre-fill the vacated band with the boundary value (local, no comm).
	if dst.rank >= 0 {
		dst.eachLocal(func(off int, idx []int) {
			j := idx[axis] + shift
			if j < 0 || j >= n {
				dst.data[off] = boundary
			}
		})
	}
	Remap(p, dst, src, func(srcIdx, dstIdx []int) bool {
		j := srcIdx[axis] - shift
		if j < 0 || j >= n {
			return false
		}
		copy(dstIdx, srcIdx)
		dstIdx[axis] = j
		return true
	})
}

func checkShiftArgs[T any](dst, src *Array[T], axis int) {
	if src.l.Rank() != dst.l.Rank() || axis < 0 || axis >= src.l.Rank() {
		panic(fmt.Sprintf("dist: shift axis %d of rank-%d arrays", axis, src.l.Rank()))
	}
	for d := range src.l.shape {
		if src.l.shape[d] != dst.l.shape[d] {
			panic(fmt.Sprintf("dist: shift shape mismatch %v vs %v", src.l.shape, dst.l.shape))
		}
	}
}

// CopySection copies the box of the given shape starting at srcOff in src
// to the box starting at dstOff in dst — the array-section assignment
// multiblock codes use to exchange block boundaries. Boxes must fit in both
// arrays.
func CopySection[T any](p *machine.Proc, dst *Array[T], dstOff []int, src *Array[T], srcOff, shape []int) {
	nd := src.l.Rank()
	if dst.l.Rank() != nd || len(dstOff) != nd || len(srcOff) != nd || len(shape) != nd {
		panic(fmt.Sprintf("dist: CopySection rank mismatch (src rank %d, dst rank %d, offs %d/%d, shape %d)",
			nd, dst.l.Rank(), len(srcOff), len(dstOff), len(shape)))
	}
	for d := 0; d < nd; d++ {
		if srcOff[d] < 0 || srcOff[d]+shape[d] > src.l.shape[d] ||
			dstOff[d] < 0 || dstOff[d]+shape[d] > dst.l.shape[d] || shape[d] <= 0 {
			panic(fmt.Sprintf("dist: CopySection box out of range: srcOff %v dstOff %v shape %v src %v dst %v",
				srcOff, dstOff, shape, src.l.shape, dst.l.shape))
		}
	}
	Remap(p, dst, src, func(srcIdx, dstIdx []int) bool {
		for d := 0; d < nd; d++ {
			rel := srcIdx[d] - srcOff[d]
			if rel < 0 || rel >= shape[d] {
				return false
			}
			dstIdx[d] = dstOff[d] + rel
		}
		return true
	})
}

// ReduceAxis reduces src along the given axis with op into dst, whose shape
// must equal src's shape with that axis removed. Every processor owning
// part of either array must call it. Partial results are combined first in
// each sender's local order and then in source-rank order at the
// destination owner — a deterministic order that may differ from sequential
// evaluation (relevant for non-associative floating point reductions).
func ReduceAxis[T any](p *machine.Proc, dst *Array[T], src *Array[T], axis int, op func(a, b T) T) {
	nd := src.l.Rank()
	if axis < 0 || axis >= nd || dst.l.Rank() != nd-1 {
		panic(fmt.Sprintf("dist: ReduceAxis axis %d of rank-%d into rank-%d", axis, nd, dst.l.Rank()))
	}
	for d, dd := 0, 0; d < nd; d++ {
		if d == axis {
			continue
		}
		if dst.l.shape[dd] != src.l.shape[d] {
			panic(fmt.Sprintf("dist: ReduceAxis shape mismatch: src %v minus axis %d vs dst %v", src.l.shape, axis, dst.l.shape))
		}
		dd++
	}
	isSender := src.rank >= 0
	isReceiver := dst.rank >= 0
	if !isSender && !isReceiver {
		return
	}
	elemBytes := comm.ElemBytes[T]()
	myID := p.ID()

	// reducedOf drops the axis coordinate.
	reducedOf := func(srcIdx []int, out []int) {
		dd := 0
		for d := 0; d < nd; d++ {
			if d == axis {
				continue
			}
			out[dd] = srcIdx[d]
			dd++
		}
	}

	// enumerate produces, for source rank s, the per-destination-rank
	// sequence of (first-occurrence-ordered) reduced indices. Both sender
	// and receiver run it, guaranteeing agreement.
	type partial struct {
		flat int // flattened reduced index (for dedup)
		off  int // destination local offset (receiver side)
	}
	strides := rowMajorStrides(dst.l.shape)
	enumerate := func(s int, visit func(flatIdx int, reduced []int)) {
		seen := make(map[int]bool)
		reduced := make([]int, nd-1)
		src.l.eachLocalOf(s, func(_ int, gi []int) {
			reducedOf(gi, reduced)
			flat := 0
			for d, x := range reduced {
				flat += x * strides[d]
			}
			if seen[flat] {
				return
			}
			seen[flat] = true
			visit(flat, reduced)
		})
	}

	// seeded tracks, on the receiver, which destination elements have
	// received their first contribution this call.
	var seeded []bool
	if isReceiver {
		seeded = make([]bool, len(dst.data))
	}
	combine := func(off int, v T) {
		if seeded[off] {
			dst.data[off] = op(dst.data[off], v)
		} else {
			dst.data[off] = v
			seeded[off] = true
		}
	}

	if isSender {
		// Compute local partials.
		partials := make(map[int]T)
		havePartial := make(map[int]bool)
		reduced := make([]int, nd-1)
		src.eachLocal(func(off int, idx []int) {
			reducedOf(idx, reduced)
			flat := 0
			for d, x := range reduced {
				flat += x * strides[d]
			}
			if havePartial[flat] {
				partials[flat] = op(partials[flat], src.data[off])
			} else {
				partials[flat] = src.data[off]
				havePartial[flat] = true
			}
		})
		// Bucket per destination owner in enumeration order.
		buckets := make(map[int][]T)
		enumerate(src.rank, func(flat int, reduced []int) {
			r := dst.l.OwnerRank(reduced...)
			if dst.l.g.Phys(r) == myID {
				return // handled in the receiver combine below
			}
			buckets[r] = append(buckets[r], partials[flat])
		})
		for r := 0; r < dst.l.g.Size(); r++ {
			if vals := buckets[r]; len(vals) > 0 {
				p.Send(dst.l.g.Phys(r), vals, len(vals)*elemBytes)
			}
		}
		if isReceiver {
			// Self contributions seed or extend the local combine state.
			enumerate(src.rank, func(flat int, reduced []int) {
				if dst.l.OwnerRank(reduced...) != dst.rank {
					return
				}
				combine(dst.l.localOffset(reduced, dst.localShape), partials[flat])
			})
		}
	}

	if isReceiver && len(dst.data) > 0 {
		for s := 0; s < src.l.g.Size(); s++ {
			if src.l.g.Phys(s) == myID {
				continue
			}
			var offs []int
			enumerate(s, func(flat int, reduced []int) {
				if dst.l.OwnerRank(reduced...) == dst.rank {
					offs = append(offs, dst.l.localOffset(reduced, dst.localShape))
				}
			})
			if len(offs) == 0 {
				continue
			}
			vals := recvSlice[T](p, src.l.g.Phys(s))
			if len(vals) != len(offs) {
				panic(fmt.Sprintf("dist: ReduceAxis expected %d partials from rank %d, got %d", len(offs), s, len(vals)))
			}
			for i, off := range offs {
				combine(off, vals[i])
			}
		}
	}
}
