package dist

import (
	"sync"
	"testing"
	"testing/quick"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// LocalShape returns the local extents on the given group rank.
func (l *Layout) LocalShape(rank int) []int {
	return l.localShapeInto(make([]int, len(l.dims)), rank)
}

func mkDim(t *testing.T, n, q int, a Axis) dim {
	t.Helper()
	d, err := newDim(n, q, a)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDimBlockBasics(t *testing.T) {
	d := mkDim(t, 10, 4, BlockAxis()) // b = 3
	wantOwner := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range wantOwner {
		if got := d.ownerOf(i); got != w {
			t.Errorf("ownerOf(%d) = %d, want %d", i, got, w)
		}
	}
	counts := []int{3, 3, 3, 1}
	for c, w := range counts {
		if got := d.localCount(c); got != w {
			t.Errorf("localCount(%d) = %d, want %d", c, got, w)
		}
	}
}

func TestDimBlockEmptyCoordinate(t *testing.T) {
	d := mkDim(t, 5, 4, BlockAxis()) // b=2: counts 2,2,1,0
	if got := d.localCount(3); got != 0 {
		t.Errorf("localCount(3) = %d, want 0", got)
	}
}

func TestDimCyclic(t *testing.T) {
	d := mkDim(t, 7, 3, CyclicAxis())
	for i := 0; i < 7; i++ {
		if got := d.ownerOf(i); got != i%3 {
			t.Errorf("ownerOf(%d) = %d", i, got)
		}
	}
	if d.localCount(0) != 3 || d.localCount(1) != 2 || d.localCount(2) != 2 {
		t.Errorf("counts = %d,%d,%d", d.localCount(0), d.localCount(1), d.localCount(2))
	}
}

func TestDimBlockCyclic(t *testing.T) {
	d := mkDim(t, 10, 2, BlockCyclicAxis(3))
	// Blocks: [0,3)->0 [3,6)->1 [6,9)->0 [9,10)->1
	owners := []int{0, 0, 0, 1, 1, 1, 0, 0, 0, 1}
	for i, w := range owners {
		if got := d.ownerOf(i); got != w {
			t.Errorf("ownerOf(%d) = %d, want %d", i, got, w)
		}
	}
	if d.localCount(0) != 6 || d.localCount(1) != 4 {
		t.Errorf("counts = %d,%d", d.localCount(0), d.localCount(1))
	}
}

// Property: for every kind, (ownerOf, localOf) and globalOf are inverse, the
// per-coordinate counts partition the extent, and local->global is strictly
// increasing.
func TestDimRoundTripProperty(t *testing.T) {
	f := func(nSeed, qSeed, bSeed uint8, kindSeed uint8) bool {
		n := int(nSeed)%100 + 1
		q := int(qSeed)%8 + 1
		var a Axis
		switch kindSeed % 4 {
		case 0:
			a, q = CollapsedAxis(), 1
		case 1:
			a = BlockAxis()
		case 2:
			a = CyclicAxis()
		default:
			a = BlockCyclicAxis(int(bSeed)%5 + 1)
		}
		d, err := newDim(n, q, a)
		if err != nil {
			return false
		}
		total := 0
		for c := 0; c < q; c++ {
			cnt := d.localCount(c)
			total += cnt
			prev := -1
			for l := 0; l < cnt; l++ {
				g := d.globalOf(c, l)
				if g <= prev {
					return false // not strictly increasing
				}
				prev = g
				if g < 0 || g >= n {
					return false
				}
				if d.ownerOf(g) != c || d.localOf(g) != l {
					return false
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewLayoutErrors(t *testing.T) {
	g := group.World(4)
	if _, err := NewLayout(nil, []int{4}, []Axis{BlockAxis()}, []int{4}); err == nil {
		t.Error("nil group accepted")
	}
	if _, err := NewLayout(g, []int{4, 4}, []Axis{BlockAxis()}, []int{4}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := NewLayout(g, []int{4}, []Axis{BlockAxis()}, []int{3}); err == nil {
		t.Error("grid/group mismatch accepted")
	}
	if _, err := NewLayout(g, []int{4, 4}, []Axis{CollapsedAxis(), BlockAxis()}, []int{2, 2}); err == nil {
		t.Error("collapsed dim with grid > 1 accepted")
	}
	if _, err := NewLayout(g, []int{0}, []Axis{BlockAxis()}, []int{4}); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := NewLayout(g, []int{4}, []Axis{BlockCyclicAxis(0)}, []int{4}); err == nil {
		t.Error("zero block size accepted")
	}
}

// arraySink keeps the arrays an allocation count makes on the heap.
var arraySink *Array[float64]

// TestLayoutSharedPerGroup: every caller of NewLayout with equal arguments
// over a contiguous group gets one layout, whichever Group value names the
// group, and any other argument gets another; an invalid layout is never
// stored; concurrent first builds, and their root views, agree; and New on
// a warm layout allocates only the array.
func TestLayoutSharedPerGroup(t *testing.T) {
	world := group.World(8)
	shape, axes := []int{12, 5}, []Axis{BlockAxis(), CollapsedAxis()}
	l := MustLayout(group.World(4), shape, axes, []int{4, 1})
	for name, g := range map[string]*group.Group{
		"another World(4)":        group.World(4),
		"Subrange(0, 4)":          world.Subrange(0, 4),
		"a second Subrange(0, 4)": world.Subrange(0, 8).Subrange(0, 4),
	} {
		if got := MustLayout(g, shape, axes, []int{4, 1}); got != l {
			t.Errorf("%s: a second layout for equal arguments", name)
		}
	}
	for name, other := range map[string]*Layout{
		"shape": MustLayout(world.Subrange(0, 4), []int{13, 5}, axes, []int{4, 1}),
		"axis":  MustLayout(world.Subrange(0, 4), shape, []Axis{CyclicAxis(), CollapsedAxis()}, []int{4, 1}),
		"grid":  MustLayout(world.Subrange(0, 4), shape, []Axis{BlockAxis(), BlockAxis()}, []int{2, 2}),
		"base":  MustLayout(world.Subrange(1, 5), shape, axes, []int{4, 1}),
	} {
		if other == l {
			t.Errorf("a different %s shares the layout", name)
		}
	}
	shuffled := group.MustNew([]int{3, 1, 2, 0})
	if MustLayout(shuffled, shape, axes, []int{4, 1}) == MustLayout(shuffled, shape, axes, []int{4, 1}) {
		t.Error("a non-contiguous group's layout was shared")
	}

	layouts.Lock()
	stored := len(layouts.m)
	layouts.Unlock()
	for range 2 {
		if _, err := NewLayout(world, shape, axes, []int{4, 1}); err == nil {
			t.Fatal("grid of 4 cells over 8 processors accepted")
		}
		if _, err := NewLayout(world, []int{0, 5}, axes, []int{8, 1}); err == nil {
			t.Fatal("zero extent accepted")
		}
	}
	layouts.Lock()
	if len(layouts.m) != stored {
		t.Errorf("invalid layouts were stored: %d entries, then %d", stored, len(layouts.m))
	}
	layouts.Unlock()

	const callers = 64
	wide := group.World(callers)
	var wg sync.WaitGroup
	got, roots := make([]*Layout, callers), make([]*Layout, callers)
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = RowBlock2D(wide.Subrange(0, callers), 1001, 3)
			roots[i] = got[i].rootLayout()
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] || roots[i] != roots[0] {
			t.Fatalf("caller %d of %d concurrent first builds got its own layout or root view", i, callers)
		}
	}

	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	vol := MustLayout(group.World(2), []int{3, 8, 5}, []Axis{CollapsedAxis(), BlockAxis(), CollapsedAxis()}, []int{1, 2, 1})
	testMachine(1).Run(func(p *machine.Proc) {
		for _, warm := range []*Layout{RowBlock2D(group.World(1), 8, 5), vol} {
			if allocs := testing.AllocsPerRun(100, func() { arraySink = New[float64](p, warm) }); allocs != 1 {
				t.Errorf("New on a warm %v allocates %v times, want 1", warm, allocs)
			}
		}
	})
}

func TestLayoutOwnerAndLocal2D(t *testing.T) {
	g := group.World(4)
	l := RowBlock2D(g, 8, 6) // 2 rows per proc
	if got := l.OwnerRank(0, 3); got != 0 {
		t.Errorf("owner(0,3) = %d", got)
	}
	if got := l.OwnerRank(7, 0); got != 3 {
		t.Errorf("owner(7,0) = %d", got)
	}
	ls := l.LocalShape(1)
	if ls[0] != 2 || ls[1] != 6 {
		t.Errorf("local shape = %v", ls)
	}
	if got := l.LocalCount(2); got != 12 {
		t.Errorf("local count = %d", got)
	}
}

func TestLayoutGlobalOfLocalRoundTrip(t *testing.T) {
	g := group.World(6)
	l := MustLayout(g, []int{9, 10},
		[]Axis{BlockAxis(), CyclicAxis()}, []int{3, 2})
	for r := 0; r < 6; r++ {
		cnt := l.LocalCount(r)
		for off := 0; off < cnt; off++ {
			gi := refGlobalOfLocal(l, r, off)
			if own := l.OwnerRank(gi...); own != r {
				t.Fatalf("rank %d offset %d -> %v owned by %d", r, off, gi, own)
			}
			if back := l.localOffset(gi, l.LocalShape(r)); back != off {
				t.Fatalf("rank %d offset %d -> %v -> offset %d", r, off, gi, back)
			}
		}
	}
}

// Property: every global index of a random 2D layout has exactly one owner,
// and local offsets are a bijection.
func TestLayoutPartitionProperty(t *testing.T) {
	f := func(rows, cols uint8, gridSeed uint8, kindA, kindB uint8) bool {
		r := int(rows)%12 + 1
		c := int(cols)%12 + 1
		grids := [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 1}, {2, 3}}
		grid := grids[int(gridSeed)%len(grids)]
		axisFor := func(k uint8, q int) Axis {
			if q == 1 {
				switch k % 2 {
				case 0:
					return CollapsedAxis()
				default:
					return BlockAxis()
				}
			}
			switch k % 3 {
			case 0:
				return BlockAxis()
			case 1:
				return CyclicAxis()
			default:
				return BlockCyclicAxis(2)
			}
		}
		g := group.World(grid[0] * grid[1])
		l, err := NewLayout(g, []int{r, c},
			[]Axis{axisFor(kindA, grid[0]), axisFor(kindB, grid[1])},
			[]int{grid[0], grid[1]})
		if err != nil {
			return false
		}
		seen := make(map[[2]int]bool)
		totalLocal := 0
		for rank := 0; rank < g.Size(); rank++ {
			cnt := l.LocalCount(rank)
			totalLocal += cnt
			for off := 0; off < cnt; off++ {
				gi := refGlobalOfLocal(l, rank, off)
				key := [2]int{gi[0], gi[1]}
				if seen[key] {
					return false
				}
				seen[key] = true
				if l.OwnerRank(gi...) != rank {
					return false
				}
			}
		}
		return totalLocal == r*c && len(seen) == r*c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
