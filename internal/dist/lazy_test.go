package dist

import (
	"fmt"
	"runtime"
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// TestNewDefersStorage: New on a 2^20-element layout allocates no storage,
// and neither do the descriptor queries; the first touch allocates the
// local part, zeroed, at its layout's local size.
func TestNewDefersStorage(t *testing.T) {
	const procs = 4
	m := testMachine(procs)
	m.SetEngine(machine.Coop(1)) // one processor at a time: the readings are its own
	m.Run(func(p *machine.Proc) {
		l := RowBlock2D(group.World(procs), 1024, 1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := New[float64](p, l)
		_, _ = a.localShape[0], a.l.OwnerRank(0, 0) == a.rank
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Errorf("processor %d: New and the descriptor queries allocated %d bytes", p.ID(), d)
		}
		local := a.Local()
		if want := l.LocalCount(a.Rank()); len(local) != want {
			t.Errorf("processor %d: %d local elements after first touch, want %d", p.ID(), len(local), want)
		}
		for i, v := range local {
			if v != 0 {
				t.Errorf("processor %d: local %d is %v on first touch", p.ID(), i, v)
				break
			}
		}
	})
}

// TestUntouchedArraysMoveAsByteCounts: with the source, the destination or
// both untouched — no storage, all zeros — Assign, Transpose2D, remap and
// CopySection (into a destination filled outside the box, which survives)
// leave the same data, and send the same messages at the same virtual
// times, as the per-element reference moving real zeros, under both
// engines. The source stays untouched through ScatterGlobal(nil), and an
// untouched destination stays without storage.
func TestUntouchedArraysMoveAsByteCounts(t *testing.T) {
	world := func(n int) *group.Group { return group.World(n) }
	remaps := []oracleCase{
		{name: "row-block to col-block assign", procs: 4,
			src: func() *Layout { return RowBlock2D(world(4), 8, 8) },
			dst: func() *Layout { return ColBlock2D(world(4), 8, 8) }, perm: []int{0, 1}},
		{name: "corner turn onto a disjoint subgroup", procs: 6,
			src: func() *Layout { return RowBlock2D(world(6).Subrange(0, 2), 9, 5) },
			dst: func() *Layout { return RowBlock2D(world(6).Subrange(2, 6), 5, 9) }, perm: []int{1, 0}},
		{name: "corner turn, more processors than rows", procs: 8,
			src: func() *Layout { return RowBlock2D(world(8), 3, 4) },
			dst: func() *Layout { return RowBlock2D(world(8), 4, 3) }, perm: []int{1, 0}},
	}
	sections := []sectionCase{
		{name: "multiblock interface column", procs: 4,
			src:    func() *Layout { return RowBlock2D(group.MustNew([]int{0, 1}), 6, 8) },
			dst:    func() *Layout { return RowBlock2D(group.MustNew([]int{2, 3}), 6, 10) },
			srcOff: []int{0, 6}, dstOff: []int{0, 0}, box: []int{6, 1}},
	}
	for i := 0; i < 12; i++ {
		remaps = append(remaps, genCase(13, i))
		sections = append(sections, genSectionCase(13, i))
	}
	// untouched -> untouched, untouched -> touched, touched -> untouched
	for _, tc := range []touch{0, touchDst, touchSrc} {
		for _, c := range remaps {
			checkOracleCase(t, c, tc)
		}
		for _, c := range sections {
			checkSectionCase(t, c, tc)
		}
		if t.Failed() {
			return
		}
	}
}

// TestUntouchedTransposeAllocatesNoStorage: the corner turn of an untouched
// 256x256 complex128 array over 64 processors allocates no element storage
// — no send buffers, no destination parts. Its communication sets and
// message headers are those of the same transpose of an int8 array, so the
// two allocate the same bytes, where storage would differ by 2 MB. One
// untimed transpose of each type first fills the pool the split scratch is
// borrowed from, so neither reading is charged for it.
func TestUntouchedTransposeAllocatesNoStorage(t *testing.T) {
	const procs, n = 64, 256
	transposeUntouched[complex128](t, procs, n)
	transposeUntouched[int8](t, procs, n)
	c128 := transposeUntouched[complex128](t, procs, n)
	i8 := transposeUntouched[int8](t, procs, n)
	t.Logf("untouched %dx%d transpose over %d processors: complex128 %d bytes, int8 %d bytes", n, n, procs, c128, i8)
	if storage := int64(n * n * 16); !raceEnabled && c128-i8 >= storage/4 {
		t.Errorf("complex128 transpose allocated %d bytes more than int8's; one array's storage is %d", c128-i8, storage)
	}
}

// transposeUntouched returns the bytes a Transpose2D between two untouched
// n-by-n arrays of T over procs processors allocates, and requires both to
// stay without storage.
func transposeUntouched[T any](t *testing.T, procs, n int) int64 {
	m := testMachine(procs)
	m.SetEngine(machine.Coop(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.Run(func(p *machine.Proc) {
		g := group.World(procs)
		a, b := New[T](p, RowBlock2D(g, n, n)), New[T](p, RowBlock2D(g, n, n))
		Transpose2D(p, b, a)
		if a.data != nil || b.data != nil {
			t.Errorf("processor %d: untouched arrays hold storage after the transpose", p.ID())
		}
	})
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// FuzzNewLayout draws NewLayout and NewAligned arguments — shape, axes,
// grid, group size and alignment offsets, any of them out of range — from
// bytes. A rejected argument list must return an error, never panic. On
// every accepted layout the ranks' local counts sum to its size, every local
// offset maps to a global index its rank owns, and a member's first touch
// allocates exactly its local count.
func FuzzNewLayout(f *testing.F) {
	// Rank; per dimension extent, kind, block size, grid extent; group size;
	// align flag (bit 1: one extent too many); aligned extents; offsets.
	f.Add([]byte{2, 8, 1, 0, 4, 6, 0, 0, 1, 4, 0})                 // row-block 8x6 over 4
	f.Add([]byte{1, 13, 3, 3, 5, 5, 0})                            // BLOCK_CYCLIC(3), 13 over 5
	f.Add([]byte{3, 5, 2, 0, 2, 7, 1, 0, 3, 4, 0, 0, 1, 6, 0})     // cyclic x block x collapsed over 2x3
	f.Add([]byte{2, 10, 1, 0, 2, 9, 2, 0, 2, 4, 1, 6, 5, 2, 3})    // 6x5 aligned at (2,3) into 10x9
	f.Add([]byte{2, 10, 1, 0, 2, 9, 2, 0, 2, 4, 3, 6, 5, 1, 2, 3}) // aligned, rank mismatch
	f.Add([]byte{1, 0xfb, 1, 0, 1, 1, 0})                          // negative extent
	f.Add([]byte{1, 8, 1, 0, 3, 4, 0})                             // grid 3 over 4 processors
	f.Fuzz(func(t *testing.T, data []byte) {
		next := fuzzReader(data)
		l, err := fuzzLayout(next)
		if err != nil {
			return
		}
		if align := next(); align&1 == 1 {
			if l, _, err = fuzzAligned(next, l, align); err != nil {
				return
			}
		}
		checkLayout(t, l)
	})
}

// FuzzNewAligned aligns into a valid base layout drawn from bytes, with
// shapes and offsets drawn from the same bytes, any of them out of range,
// once and then again into the result. NewAligned must never panic on a
// valid base. Every layout it accepts must place each index on the rank
// that owns the index plus the offsets in its base, and pass checkLayout.
func FuzzNewAligned(f *testing.F) {
	// FuzzNewLayout's base bytes; then per alignment a flag (bit 0: align,
	// bit 1: one extent too many), the extents and the offsets.
	f.Add([]byte{2, 10, 1, 0, 2, 9, 2, 0, 2, 4, 1, 6, 5, 2, 3, 1, 3, 2, 1, 1}) // 6x5 at (2,3) into 10x9, then 3x2 at (1,1)
	f.Add([]byte{1, 16, 1, 0, 4, 4, 1, 6, 5, 1, 4, 1})                         // BLOCK 16 over 4: 6 at 5, then 4 at 1
	f.Add([]byte{1, 12, 2, 0, 3, 3, 1, 7, 2})                                  // CYCLIC 12 over 3: 7 at 2
	f.Add([]byte{1, 10, 3, 2, 2, 2, 1, 4, 1})                                  // BLOCK_CYCLIC(2): offset refused
	f.Add([]byte{2, 8, 1, 0, 2, 6, 0, 0, 1, 2, 3, 8, 6, 0, 0})                 // rank mismatch
	f.Add([]byte{3, 5, 2, 0, 2, 7, 1, 0, 3, 4, 0, 0, 1, 6, 1, 5, 7, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := fuzzReader(data)
		base, err := fuzzLayout(next)
		if err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			align := next()
			if align&1 == 0 {
				return
			}
			l, offs, err := fuzzAligned(next, base, align)
			if err != nil {
				return
			}
			idx, at := make([]int, len(offs)), make([]int, len(offs))
			for k, n := 0, l.Size(); k < n; k++ {
				for d, rem := len(idx)-1, k; d >= 0; d-- {
					idx[d], rem = rem%l.shape[d], rem/l.shape[d]
					at[d] = idx[d] + offs[d]
				}
				if got, want := l.OwnerRank(idx...), base.OwnerRank(at...); got != want {
					t.Fatalf("%v aligned at %v into %v: index %v on rank %d, base index %v on rank %d", l, offs, base, idx, got, at, want)
				}
			}
			checkLayout(t, l)
			base = l
		}
	})
}

// fuzzReader returns a reader of data's bytes as signed ints, zero once it
// runs out.
func fuzzReader(data []byte) func() int {
	return func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(int8(b))
	}
}

// fuzzLayout draws NewLayout's arguments: rank; per dimension extent, kind,
// block size, grid extent; group size.
func fuzzLayout(next func() int) (*Layout, error) {
	nd := next() & 3
	shape, axes, grid := make([]int, nd), make([]Axis, nd), make([]int, nd)
	for d := 0; d < nd; d++ {
		shape[d] = next() % 24
		axes[d] = Axis{Kind: Kind(next() % 5), B: next() % 6}
		grid[d] = next() % 6
	}
	var g *group.Group
	if size := next() & 15; size > 0 {
		g = group.World(size)
	}
	return NewLayout(g, shape, axes, grid)
}

// fuzzAligned draws NewAligned's extents (one too many if align's bit 1 is
// set) and offsets for base, and returns the layout and the offsets.
func fuzzAligned(next func() int, base *Layout, align int) (*Layout, []int, error) {
	nd := base.Rank()
	shape, offs := make([]int, nd+(align>>1)&1), make([]int, nd)
	for d := range shape {
		shape[d] = next() % 24
	}
	for d := range offs {
		offs[d] = next() % 8
	}
	l, err := NewAligned(base, shape, offs)
	return l, offs, err
}

// checkLayout holds an accepted layout to the properties every distribution
// must have.
func checkLayout(t *testing.T, l *Layout) {
	total := 0
	for r := 0; r < l.g.Size(); r++ {
		n := l.LocalCount(r)
		total += n
		for i := 0; i < n; i++ {
			if idx := refGlobalOfLocal(l, r, i); l.OwnerRank(idx...) != r {
				t.Fatalf("%v: rank %d's local %d is %v, owned by rank %d", l, r, i, idx, l.OwnerRank(idx...))
			}
		}
	}
	if total != l.Size() {
		t.Fatalf("%v: local counts sum to %d, size %d", l, total, l.Size())
	}
	var bad string
	m := testMachine(l.g.Size())
	m.SetEngine(machine.Coop(1))
	m.Run(func(p *machine.Proc) {
		a := New[int8](p, l)
		if n, want := len(a.Local()), l.LocalCount(a.Rank()); n != want {
			bad = fmt.Sprintf("%v: rank %d touched %d elements, local count %d", l, a.Rank(), n, want)
		}
	})
	if bad != "" {
		t.Fatal(bad)
	}
}
