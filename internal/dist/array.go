package dist

import (
	"fmt"
	"slices"

	"fxpar/internal/machine"
)

// Array is a distributed array of element type T. Every processor of an
// SPMD program may hold the descriptor; only members of the owning group
// hold local storage. An Array value is the per-processor view: methods
// taking no rank argument operate on the calling processor's local part.
type Array[T any] struct {
	l *Layout
	p *machine.Proc
	// rank is this processor's rank in the owning group, or -1.
	rank int
	// localShape holds this member's local extents, in ext up to
	// inlineRank; nil for non-members.
	localShape []int
	ext        [inlineRank]int
	// data is the local part in row-major order of local indices; nil until
	// local first touches it.
	data []T
	root *Array[T] // see rootView; nil until the first gather or scatter
}

// New returns a distributed array with the given layout. It records the
// layout and allocates only the descriptor: a member's local part is
// allocated, zeroed, the first time an accessor or a data movement touches
// it, so an array that is never read or written costs no storage. Other
// processors get a storage-less descriptor, mirroring the Fx compiler's
// dynamic allocation in SPMD code.
func New[T any](p *machine.Proc, l *Layout) *Array[T] {
	a := &Array[T]{l: l, p: p, rank: -1}
	if r, ok := l.g.RankOf(p.ID()); ok {
		a.rank = r
		a.localShape = l.localShapeInto(slices.Grow(a.ext[:0], len(l.dims))[:len(l.dims)], r)
	}
	return a
}

// local returns the local part, allocating it on a member's first touch;
// nil on non-members. Every read or write of the storage goes through it.
func (a *Array[T]) local() []T {
	if a.data == nil && a.rank >= 0 {
		a.data = make([]T, a.l.LocalCount(a.rank))
	}
	return a.data
}

// Layout returns the array's layout.
func (a *Array[T]) Layout() *Layout { return a.l }

// IsMember reports whether the calling processor owns part of the array.
func (a *Array[T]) IsMember() bool { return a.rank >= 0 }

// Rank returns this processor's rank in the owning group, or -1.
func (a *Array[T]) Rank() int { return a.rank }

// Local returns this processor's local part (row-major local order); nil on
// non-members. Mutating it mutates the array.
func (a *Array[T]) Local() []T { return a.local() }

// At returns the element at a global index; it panics if this processor is
// not the owner (remote access requires explicit communication, as in any
// distributed-memory model).
func (a *Array[T]) At(idx ...int) T {
	return a.local()[a.ownedOffset(idx)]
}

// Set stores the element at a global index owned by this processor.
func (a *Array[T]) Set(v T, idx ...int) {
	a.local()[a.ownedOffset(idx)] = v
}

func (a *Array[T]) ownedOffset(idx []int) int {
	if a.rank < 0 {
		panic(fmt.Sprintf("dist: processor %d accessed %v of an array it holds no part of (%v)", a.p.ID(), idx, a.l))
	}
	if own := a.l.OwnerRank(idx...); own != a.rank {
		panic(fmt.Sprintf("dist: processor %d (rank %d) accessed %v owned by rank %d", a.p.ID(), a.rank, idx, own))
	}
	return a.l.localOffset(idx, a.localShape)
}

// FillFunc sets every locally owned element to f(globalIndex). Members only;
// non-members return immediately. The index slice passed to f is reused
// across calls.
func (a *Array[T]) FillFunc(f func(idx []int) T) {
	if a.rank < 0 {
		return
	}
	data := a.local()
	a.eachLocal(func(off int, idx []int) {
		data[off] = f(idx)
	})
}

// eachLocal visits every local element in row-major local order with its
// global index.
func (a *Array[T]) eachLocal(visit func(off int, idx []int)) {
	a.l.eachLocalOf(a.rank, visit)
}

// GlobalRowOfLocal returns the global row index of local row r (rank-2,
// first dimension distributed).
func (a *Array[T]) GlobalRowOfLocal(r int) int {
	return a.l.dims[0].globalOf(a.l.coord(a.rank, 0), r)
}
