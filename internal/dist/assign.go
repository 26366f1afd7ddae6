package dist

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"fxpar/internal/comm"
	"fxpar/internal/machine"
)

// Assign implements the parent-scope array assignment dst = src between two
// distributed arrays with the same global shape but possibly different
// layouts, groups or subgroups — e.g. the pipeline statement A2 = A1 of
// Figure 2.
//
// Participation is minimal (Section 4, "Identification of minimal processor
// subsets"): a processor that owns no part of either array returns
// immediately without synchronizing, so other subgroups can run ahead —
// this is what makes data-parallel pipelines pipeline. Processors that own
// only source elements send and return; processors that own destination
// elements receive (or copy locally) exactly what they need. Empty messages
// are never exchanged.
func Assign[T any](p *machine.Proc, dst, src *Array[T]) {
	remap(p, dst, nil, src, nil, nil, nil)
}

// Transpose2D implements dst[i][j] = src[j][i] for rank-2 arrays — the
// "corner turn" of the radar benchmark and the middle step of the 2D FFT.
func Transpose2D[T any](p *machine.Proc, dst, src *Array[T]) {
	remap(p, dst, nil, src, nil, nil, transposed)
}

// transposed and identity are read-only permutations, so no call allocates
// one: Transpose2D's, and identity prefixes up to rank len(identity).
var transposed, identity = []int{1, 0}, []int{0, 1, 2, 3, 4, 5, 6, 7}

// CopySection copies the box of the given shape starting at srcOff in src
// to the box starting at dstOff in dst — the array-section assignment
// multiblock codes use to exchange block boundaries. Boxes must fit in both
// arrays. It is Assign's communication-set walk restricted to the two boxes.
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
	remap(p, dst, dstOff, src, srcOff, shape, nil)
}

// remap implements dst[dstOff+I] = src[srcOff+J] where J[perm[d]] = I[d];
// that is, dst dimension d ranges over src dimension perm[d]. perm must be a
// permutation of the dimensions (nil: the identity). I ranges over box,
// given in destination dimensions, which the caller has checked fits both
// arrays; a nil box (with nil offsets) means the whole arrays, whose shapes
// must then agree.
//
// Correctness of message matching: both sides enumerate the transferred
// elements in destination global row-major order. The receiver's local
// row-major order is exactly that order restricted to its owned set
// (local-to-global maps are strictly increasing per dimension); the sender
// iterates its source dimensions in the order perm[0], perm[1], ..., which
// enumerates its owned source set in the same destination order. Restricted
// to one (sender, receiver) pair both sequences are the same set in the same
// order, so per-pair FIFO delivery needs no element indices on the wire.
//
// Who exchanges what is never discovered element by element: each side
// splits its local indices per axis by owning peer coordinate (newSide) and
// a pair's set is the cross product of one part per axis (commset.go).
func remap[T any](p *machine.Proc, dst *Array[T], dstOff []int, src *Array[T], srcOff, box, perm []int) {
	nd := dst.l.Rank()
	if src.l.Rank() != nd || (perm != nil && len(perm) != nd) {
		panic(fmt.Sprintf("dist: remap rank mismatch: src %v dst %v perm %v", src.l, dst.l, perm))
	}
	ident := identity[:min(nd, len(identity))]
	for d := len(ident); d < nd; d++ {
		ident = append(ident, d)
	}
	if perm == nil {
		perm = ident
	}
	for d := 0; d < nd; d++ {
		if box == nil && src.l.shape[perm[d]] != dst.l.shape[d] {
			panic(fmt.Sprintf("dist: remap shape mismatch: src %v dst %v perm %v", src.l.shape, dst.l.shape, perm))
		}
	}
	if src.rank < 0 && dst.rank < 0 {
		return // minimal processor subset: not a participant
	}
	elemBytes := comm.ElemBytes[T]()
	// A part nothing has touched is all zeros: it travels as a nil payload
	// of the same byte count, and leaves an untouched destination untouched.
	srcData := src.data

	// Both sides' splits share one borrowed index array and list array.
	sending := src.rank >= 0 && src.l.LocalCount(src.rank) > 0
	receiving := dst.rank >= 0 && dst.l.LocalCount(dst.rank) > 0
	nOut := sideInts(sending, src.localShape, dst.l)
	sc := getScratch(nOut+sideInts(receiving, dst.localShape, src.l), 6*nd)
	defer scratchPool.Put(sc)
	ints, lists := sc.ints, sc.lists

	var out side
	if sending {
		// Every in-box source element has exactly one destination owner, so
		// what I do not keep I send: every outgoing payload is a part of one
		// pooled slab, and messages go in destination-rank order.
		out = newSide(ints[:nOut], lists[:3*nd], src.l, src.rank, src.localShape, perm, srcOff, dst.l, ident, dstOff, box)
		var s *slab[T]
		size := dst.l.g.Size()
		if srcData != nil {
			total, peers := 0, 0
			for r := 0; r < size; r++ {
				if n := out.peerParts(r); n > 0 && r != dst.rank {
					total, peers = total+n, peers+1
				}
			}
			if peers > 0 {
				s = newSlab[T](total, peers)
			}
		}
		for r := 0; r < size; r++ {
			n := out.peerParts(r)
			if n == 0 || r == dst.rank {
				continue
			}
			var msg *part[T] // nil: untouched
			if s != nil {
				msg = s.part(s.next(n))
				copyParts(msg.vals, nil, srcData, out.parts, out.idx)
			}
			p.Send(dst.l.g.Phys(r), msg, n*elemBytes)
		}
		s.release()
	}

	if receiving {
		// Receive from senders in ascending source-rank order. Senders are
		// distinct physical processors, so per-pair FIFO plus identical
		// enumeration order guarantees a sender's k-th value is the k-th
		// element of the pair's set.
		in := newSide(ints[nOut:], lists[3*nd:], dst.l, dst.rank, dst.localShape, ident, dstOff, src.l, perm, srcOff, box)
		for s, size := 0, src.l.g.Size(); s < size; s++ {
			n := in.peerParts(s)
			if n == 0 {
				continue
			}
			vals, sp, from := srcData, [][]int(nil), (*slab[T])(nil)
			if s == src.rank {
				// Local copy path (also covers overlapping groups).
				out.peerParts(dst.rank)
				sp = out.parts
			} else if vals, from = recvSlice[T](p, src.l.g.Phys(s)); vals != nil && len(vals) != n {
				panic(fmt.Sprintf("dist: processor %d expected %d elements from rank %d, got %d", p.ID(), n, s, len(vals)))
			}
			switch {
			case vals != nil:
				copyParts(dst.local(), in.parts, vals, sp, in.idx)
			case dst.data != nil: // zeros into a touched destination
				copyParts(dst.data, in.parts, nil, nil, in.idx)
			}
			from.release()
		}
	}
}

// slab is one call's outgoing payloads, back to back in buf; a message is a
// *part of it. left counts its holders, the sender until its last send and
// each receiver until it has copied out; the last release pools the slab by
// element type and power-of-two size, so it is never reused while read.
type slab[T any] struct {
	buf   []T
	used  int
	parts []part[T]
	left  atomic.Int32
	pool  *sync.Pool
	back  *slab[T] // the slab itself; nil: never pooled (HaloRows' callers keep it)
}

type part[T any] struct {
	vals []T
	s    *slab[T]
}

// slabPools maps an element type, keyed by a nil *T, to its size classes.
var slabPools sync.Map

// newSlab returns a pooled slab of n > 0 elements and room for peers parts,
// held by the caller until it calls release.
func newSlab[T any](n, peers int) *slab[T] {
	classes, ok := slabPools.Load((*T)(nil))
	if !ok {
		classes, _ = slabPools.LoadOrStore((*T)(nil), new([64]sync.Pool))
	}
	k := bits.Len(uint(n - 1))
	pool := &classes.(*[64]sync.Pool)[k]
	s, _ := pool.Get().(*slab[T])
	if s == nil {
		s = &slab[T]{buf: make([]T, 1<<k), pool: pool}
		s.back = s
	}
	s.used, s.parts = 0, slices.Grow(s.parts[:0], peers)
	s.left.Store(1)
	return s
}

// next returns the next n elements of buf, for a payload the caller fills.
func (s *slab[T]) next(n int) []T {
	s.used += n
	return s.buf[s.used-n : s.used : s.used]
}

// part makes vals, which lie in buf, a message's payload. Parts stay within
// the capacity the slab was made with, so earlier messages' pointers hold.
func (s *slab[T]) part(vals []T) *part[T] {
	if s.back != nil {
		s.left.Add(1)
	}
	s.parts = append(s.parts, part[T]{vals, s.back})
	return &s.parts[len(s.parts)-1]
}

// release drops one hold on a pooled slab (nil: none).
func (s *slab[T]) release() {
	if s != nil && s.left.Add(-1) == 0 {
		s.pool.Put(s)
	}
}

// recvSlice receives the next payload from srcPhys: its values (nil for an
// untouched part) and the slab the caller releases once it has copied them.
func recvSlice[T any](p *machine.Proc, srcPhys int) ([]T, *slab[T]) {
	msg := p.Recv(srcPhys)
	pt, ok := msg.Data.(*part[T])
	if !ok {
		panic(fmt.Sprintf("dist: processor %d expected *part[%T] from %d, got %T", p.ID(), *new(T), srcPhys, msg.Data))
	}
	if pt == nil {
		return nil, nil
	}
	return pt.vals, pt.s
}

// GatherGlobal collects the whole array in global row-major order at the
// owning group's rank 0 (nil elsewhere). Non-members return nil without
// synchronizing. Intended for result verification and output stages.
func GatherGlobal[T any](p *machine.Proc, a *Array[T]) []T {
	if a.rank < 0 {
		return nil
	}
	var out []T
	if a.rank == 0 {
		out = make([]T, a.l.Size())
	}
	Assign(p, rootView(a, out), a)
	a.root.data = nil // keep no caller slice between calls
	return out
}

// ScatterGlobal distributes full (global row-major, significant at the
// owning group's rank 0) into the array; a nil full scatters zeros, as
// untouched parts (see remap). All members must call it.
func ScatterGlobal[T any](p *machine.Proc, a *Array[T], full []T) {
	if a.rank < 0 {
		return
	}
	if a.rank == 0 && full != nil && len(full) != a.l.Size() {
		panic(fmt.Sprintf("dist: ScatterGlobal got %d elements for %v", len(full), a.l))
	}
	Assign(p, a, rootView(a, full))
	a.root.data = nil
}

// rootView presents global (row-major, significant at rank 0 of a's group)
// as an array of a's shape that rank 0 owns whole — every dimension
// collapsed over the one-processor group — so gathering to and scattering
// from the root are assignments like any other. The view is built on a's
// first gather or scatter and kept on a; each call only swaps global in.
func rootView[T any](a *Array[T], global []T) *Array[T] {
	if a.root == nil {
		axes := make([]Axis, a.l.Rank()) // the zero Axis is collapsed
		ones := make([]int, a.l.Rank())
		for d := range ones {
			ones[d] = 1
		}
		a.root = &Array[T]{p: a.p, rank: -1, l: MustLayout(a.l.g.Subrange(0, 1), a.l.shape, axes, ones)}
		if a.rank == 0 {
			a.root.rank, a.root.localShape = 0, a.l.shape
		}
	}
	if a.rank == 0 {
		a.root.data = global
	}
	return a.root
}
