// Package dist implements HPF-style distributed arrays over processor
// groups: BLOCK, CYCLIC and BLOCK_CYCLIC distributions, local/global index
// arithmetic, and the parent-scope assignment (redistribution) operation
// with minimal-processor-subset participation that Section 4 of the paper
// identifies as essential for pipelined task parallelism.
//
// An array is mapped onto a processor *grid* laid over its owning group; a
// distribution kind per dimension determines which grid coordinate owns each
// global index. Every processor of an SPMD program holds an Array descriptor;
// only members of the owning group hold local storage (matching the Fx
// compiler's dynamic allocation strategy for SPMD code generation).
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fxpar/internal/group"
)

// Kind is a per-dimension distribution kind.
type Kind int

const (
	// Collapsed dimensions are not distributed: the grid extent must be 1
	// and the single grid coordinate owns the whole dimension.
	Collapsed Kind = iota
	// Block assigns each grid coordinate one contiguous chunk of
	// ceil(n/q) indices.
	Block
	// Cyclic deals indices round-robin: coordinate k owns {k, k+q, ...}.
	Cyclic
	// BlockCyclic deals fixed-size blocks round-robin.
	BlockCyclic
)

func (k Kind) String() string {
	switch k {
	case Collapsed:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	case BlockCyclic:
		return "BLOCK_CYCLIC"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Axis describes the distribution of one dimension.
type Axis struct {
	Kind Kind
	// B is the block size for BlockCyclic; ignored otherwise.
	B int
}

// BlockAxis, CyclicAxis and CollapsedAxis are convenience constructors.
func BlockAxis() Axis            { return Axis{Kind: Block} }
func CyclicAxis() Axis           { return Axis{Kind: Cyclic} }
func CollapsedAxis() Axis        { return Axis{Kind: Collapsed} }
func BlockCyclicAxis(b int) Axis { return Axis{Kind: BlockCyclic, B: b} }

// dim holds the resolved per-dimension mapping: global extent n distributed
// over q grid coordinates. off is the alignment offset: index i of this
// array occupies position i+off of the distribution template (HPF ALIGN),
// so ownership formulas evaluate at i+off while local storage stays compact
// over [0, n).
type dim struct {
	n, q int
	kind Kind
	b    int // block size: ceil(template n/q) for Block, axis.B for BlockCyclic, template n for Collapsed
	off  int
}

func newDim(n, q int, a Axis) (dim, error) {
	if n <= 0 {
		return dim{}, fmt.Errorf("dist: non-positive extent %d", n)
	}
	if q <= 0 {
		return dim{}, fmt.Errorf("dist: non-positive grid extent %d", q)
	}
	d := dim{n: n, q: q, kind: a.Kind}
	switch a.Kind {
	case Collapsed:
		if q != 1 {
			return dim{}, fmt.Errorf("dist: collapsed dimension with grid extent %d", q)
		}
		d.b = n
	case Block:
		d.b = (n + q - 1) / q
	case Cyclic:
		d.b = 1
	case BlockCyclic:
		if a.B <= 0 {
			return dim{}, fmt.Errorf("dist: BLOCK_CYCLIC needs positive block size, got %d", a.B)
		}
		d.b = a.B
	default:
		return dim{}, fmt.Errorf("dist: unknown distribution kind %d", a.Kind)
	}
	return d, nil
}

// ownerOf returns the grid coordinate owning global index i.
func (d dim) ownerOf(i int) int {
	switch d.kind {
	case Collapsed:
		return 0
	case Block:
		return (i + d.off) / d.b
	case Cyclic:
		return (i + d.off) % d.q
	default: // BlockCyclic (off always 0)
		return (i / d.b) % d.q
	}
}

// cycStart returns, for a Cyclic dim, the smallest array index owned by c.
func (d dim) cycStart(c int) int {
	return ((c-d.off)%d.q + d.q) % d.q
}

// blkStart returns, for a Block dim, the smallest array index owned by c
// (may exceed n when c owns nothing).
func (d dim) blkStart(c int) int {
	return max(c*d.b-d.off, 0)
}

// localOf returns the local index of global index i on its owner.
func (d dim) localOf(i int) int {
	switch d.kind {
	case Collapsed:
		return i
	case Block:
		return i - d.blkStart(d.ownerOf(i))
	case Cyclic:
		return (i - d.cycStart(d.ownerOf(i))) / d.q
	default: // BlockCyclic
		blk := i / d.b
		return (blk/d.q)*d.b + i%d.b
	}
}

// globalOf returns the global index of local index l on grid coordinate c.
func (d dim) globalOf(c, l int) int {
	switch d.kind {
	case Collapsed:
		return l
	case Block:
		return d.blkStart(c) + l
	case Cyclic:
		return d.cycStart(c) + l*d.q
	default: // BlockCyclic
		blk := l / d.b
		return (blk*d.q+c)*d.b + l%d.b
	}
}

// localCount returns how many global indices grid coordinate c owns.
func (d dim) localCount(c int) int {
	switch d.kind {
	case Collapsed:
		return d.n
	case Block:
		return max(min((c+1)*d.b-d.off, d.n)-d.blkStart(c), 0)
	case Cyclic:
		f := d.cycStart(c)
		if f >= d.n {
			return 0
		}
		return (d.n - f + d.q - 1) / d.q
	default: // BlockCyclic
		full := d.n / d.b           // complete blocks
		count := (full / d.q) * d.b // complete block rounds
		rem := full % d.q
		if c < rem {
			count += d.b
		}
		if tail := d.n % d.b; tail > 0 && full%d.q == c {
			count += tail
		}
		return count
	}
}

// Layout maps a global index space onto a processor grid over a group.
type Layout struct {
	shape []int
	axes  []Axis
	grid  []int
	dims  []dim
	g     *group.Group
	// gridStride[d] converts grid coordinates to a group rank, row-major.
	gridStride []int
	// root is rootLayout's result, built on first use.
	root atomic.Pointer[Layout]
}

// allocLayout returns a layout over g holding copies of shape, axes and
// grid, with dims and gridStride allocated for the caller to fill.
func allocLayout(g *group.Group, shape []int, axes []Axis, grid []int) *Layout {
	nd := len(shape)
	ints := make([]int, 3*nd)
	copy(ints, shape)
	copy(ints[nd:], grid)
	return &Layout{g: g, shape: ints[:nd:nd], grid: ints[nd : 2*nd : 2*nd], gridStride: ints[2*nd:],
		axes: append([]Axis(nil), axes...), dims: make([]dim, nd)}
}

// NewLayout returns a layout of the given global shape over g, with one
// Axis and one grid extent per dimension. The product of grid extents must
// equal the group size. A layout is immutable, and every member of a group
// asks for the same one, so over a contiguous group up to rank inlineRank
// all callers share one (see layouts); an error is never stored.
func NewLayout(g *group.Group, shape []int, axes []Axis, grid []int) (*Layout, error) {
	k := layoutKey{rank: len(shape)}
	contig := false
	if g != nil {
		k.base, contig = g.Contiguous()
		k.size = g.Size()
	}
	if !contig || k.rank > inlineRank || len(axes) != k.rank || len(grid) != k.rank {
		return buildLayout(g, shape, axes, grid)
	}
	copy(k.shape[:], shape)
	copy(k.grid[:], grid)
	copy(k.axes[:], axes)
	layouts.Lock()
	defer layouts.Unlock()
	if l := layouts.m[k]; l != nil {
		return l, nil
	}
	l, err := buildLayout(g, shape, axes, grid)
	if err == nil {
		if len(layouts.m) >= 4096 { // far above a campaign's working set
			layouts.m = make(map[layoutKey]*Layout)
		}
		layouts.m[k] = l
	}
	return l, err
}

// layouts holds the shared layouts: every member of a group asks for the
// same one, once per array per run, and one build serves them all. It is
// process-wide and bounded: it starts over when full.
var layouts = struct {
	sync.Mutex
	m map[layoutKey]*Layout
}{m: make(map[layoutKey]*Layout)}

// inlineRank is the highest rank whose extents a layout key, and an array's
// local extents, hold inline.
const inlineRank = 3

// layoutKey names a layout by contents. A contiguous group is named by
// (base, size), not by its pointer: Subrange builds a Group per caller.
type layoutKey struct {
	base, size, rank int
	shape, grid      [inlineRank]int
	axes             [inlineRank]Axis
}

// buildLayout is NewLayout without the table.
func buildLayout(g *group.Group, shape []int, axes []Axis, grid []int) (*Layout, error) {
	if g == nil || g.Size() == 0 {
		return nil, fmt.Errorf("dist: layout needs a non-empty group")
	}
	if len(shape) == 0 || len(shape) != len(axes) || len(shape) != len(grid) {
		return nil, fmt.Errorf("dist: shape/axes/grid rank mismatch: %d/%d/%d", len(shape), len(axes), len(grid))
	}
	l := allocLayout(g, shape, axes, grid)
	prod := 1
	for _, q := range grid {
		if q <= 0 {
			return nil, fmt.Errorf("dist: non-positive grid extent %d", q)
		}
		prod *= q
	}
	if prod != g.Size() {
		// l.grid, not grid: a caller's literal then stays on its stack.
		return nil, fmt.Errorf("dist: grid %v has %d cells but group has %d processors", l.grid, prod, g.Size())
	}
	for i := range shape {
		d, err := newDim(shape[i], grid[i], axes[i])
		if err != nil {
			return nil, fmt.Errorf("dist: dimension %d: %w", i, err)
		}
		l.dims[i] = d
	}
	s := 1
	for i := len(grid) - 1; i >= 0; i-- {
		l.gridStride[i] = s
		s *= grid[i]
	}
	return l, nil
}

// MustLayout is NewLayout but panics on error.
func MustLayout(g *group.Group, shape []int, axes []Axis, grid []int) *Layout {
	l, err := NewLayout(g, shape, axes, grid)
	if err != nil {
		panic(err)
	}
	return l
}

// RowBlock2D distributes rows of an r-by-c matrix in BLOCK fashion over g,
// with columns collapsed — the workhorse layout of the sensor applications
// (each processor owns whole contiguous rows).
func RowBlock2D(g *group.Group, r, c int) *Layout {
	return MustLayout(g, []int{r, c}, []Axis{BlockAxis(), CollapsedAxis()}, []int{g.Size(), 1})
}

// ColBlock2D distributes columns of an r-by-c matrix in BLOCK fashion.
func ColBlock2D(g *group.Group, r, c int) *Layout {
	return MustLayout(g, []int{r, c}, []Axis{CollapsedAxis(), BlockAxis()}, []int{1, g.Size()})
}

// NewAligned returns a layout for an array of the given shape aligned into
// base: element I of the new array lives at position I+offsets of base's
// distribution template, and is therefore owned by the same processor that
// owns that base element — the HPF ALIGN directive with integer offsets
// (Section 2.1: "alignment directives can be used only among variables
// mapped to the same subgroup"; the aligned array shares base's group).
// The aligned box must fit inside base; BLOCK_CYCLIC templates do not
// support nonzero offsets.
func NewAligned(base *Layout, shape, offsets []int) (*Layout, error) {
	nd := base.Rank()
	if len(shape) != nd || len(offsets) != nd {
		return nil, fmt.Errorf("dist: NewAligned rank mismatch: base %d, shape %d, offsets %d", nd, len(shape), len(offsets))
	}
	l := allocLayout(base.g, shape, base.axes, base.grid)
	copy(l.gridStride, base.gridStride)
	for d := 0; d < nd; d++ {
		if shape[d] <= 0 {
			return nil, fmt.Errorf("dist: NewAligned non-positive extent %d in dimension %d", shape[d], d)
		}
		if offsets[d] < 0 || offsets[d]+shape[d] > base.shape[d] {
			return nil, fmt.Errorf("dist: NewAligned box [%d,%d) outside base extent %d in dimension %d",
				offsets[d], offsets[d]+shape[d], base.shape[d], d)
		}
		bd := base.dims[d]
		if bd.kind == BlockCyclic && offsets[d] != 0 {
			return nil, fmt.Errorf("dist: NewAligned does not support offsets into BLOCK_CYCLIC dimension %d", d)
		}
		l.dims[d] = dim{n: shape[d], q: bd.q, kind: bd.kind, b: bd.b, off: bd.off + offsets[d]}
	}
	return l, nil
}

// rootLayout returns the layout rootView presents a global array through:
// l's shape with every dimension collapsed over the one-processor group of
// l's rank 0. It is built once per layout and shared by every member.
func (l *Layout) rootLayout() *Layout {
	if r := l.root.Load(); r != nil {
		return r
	}
	ones := make([]int, len(l.shape))
	for d := range ones {
		ones[d] = 1
	}
	// The zero Axis is collapsed. A concurrent first build may win the swap.
	l.root.CompareAndSwap(nil, MustLayout(l.g.Subrange(0, 1), l.shape, make([]Axis, len(ones)), ones))
	return l.root.Load()
}

// Rank returns the number of dimensions.
func (l *Layout) Rank() int { return len(l.shape) }

// Shape returns a copy of the global extents.
func (l *Layout) Shape() []int { return append([]int(nil), l.shape...) }

// Grid returns a copy of the processor grid extents.
func (l *Layout) Grid() []int { return append([]int(nil), l.grid...) }

// Group returns the owning group.
func (l *Layout) Group() *group.Group { return l.g }

// Size returns the number of global elements.
func (l *Layout) Size() int {
	n := 1
	for _, s := range l.shape {
		n *= s
	}
	return n
}

// coord returns the grid coordinate of group rank r along axis i (ranks
// number the grid row-major).
func (l *Layout) coord(r, i int) int {
	return (r / l.gridStride[i]) % l.grid[i]
}

// OwnerRank returns the group rank owning the global index.
func (l *Layout) OwnerRank(idx ...int) int {
	l.checkIndex(idx)
	r := 0
	for i, x := range idx {
		r += l.dims[i].ownerOf(x) * l.gridStride[i]
	}
	return r
}

// localShapeInto writes the local extents on the given rank into out.
func (l *Layout) localShapeInto(out []int, rank int) []int {
	for i, d := range l.dims {
		out[i] = d.localCount(l.coord(rank, i))
	}
	return out
}

// LocalCount returns the number of elements the given group rank owns.
func (l *Layout) LocalCount(rank int) int {
	n := 1
	for i, d := range l.dims {
		n *= d.localCount(l.coord(rank, i))
	}
	return n
}

// LocalOf returns the rank-local (row-major) offset of a global index; the
// caller must ensure the index is owned by that rank.
func (l *Layout) localOffset(idx []int, localShape []int) int {
	off := 0
	for i, x := range idx {
		off = off*localShape[i] + l.dims[i].localOf(x)
	}
	return off
}

// eachLocalOf visits every element the given group rank owns, in its
// row-major local order, with the local offset and the global index. The
// index slice is reused across calls.
func (l *Layout) eachLocalOf(rank int, visit func(off int, idx []int)) {
	nd := len(l.dims)
	scratch := make([]int, 4*nd)
	li, gi, c, ext := scratch[:nd], scratch[nd:2*nd], scratch[2*nd:3*nd], scratch[3*nd:]
	total := 1
	for d, dm := range l.dims {
		c[d] = l.coord(rank, d)
		ext[d] = dm.localCount(c[d])
		total *= ext[d]
	}
	for off := 0; off < total; off++ {
		for d, dm := range l.dims {
			gi[d] = dm.globalOf(c[d], li[d])
		}
		visit(off, gi)
		for d := nd - 1; d >= 0; d-- {
			li[d]++
			if li[d] < ext[d] {
				break
			}
			li[d] = 0
		}
	}
}

func (l *Layout) checkIndex(idx []int) {
	if len(idx) != len(l.shape) {
		panic(fmt.Sprintf("dist: index rank %d for layout rank %d", len(idx), len(l.shape)))
	}
	for i, x := range idx {
		if x < 0 || x >= l.shape[i] {
			panic(fmt.Sprintf("dist: index %v out of shape %v", idx, l.shape))
		}
	}
}

func (l *Layout) String() string {
	return fmt.Sprintf("layout(shape=%v dist=%v grid=%v over %d procs)", l.shape, l.axes, l.grid, l.g.Size())
}
