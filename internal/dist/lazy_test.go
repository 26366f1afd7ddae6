package dist

import (
	"fmt"
	"runtime"
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/trace"
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
		_, _, _ = a.LocalShape(), a.NumLocalRows(), a.Has(0, 0)
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

// TestAssignFromUntouchedArray: assigning from an array nothing has touched
// moves the same messages at the same virtual times, and leaves the same
// (zero) destination, as assigning from a touched all-zero one.
func TestAssignFromUntouchedArray(t *testing.T) {
	const procs = 4
	run := func(touch bool, eng machine.Engine) oracleResult {
		m := testMachine(procs)
		m.SetEngine(eng)
		var col trace.Collector
		m.SetTracer(&col)
		res := oracleResult{local: make([][]float64, procs)}
		res.stats = m.Run(func(p *machine.Proc) {
			g := group.World(procs)
			src := New[float64](p, RowBlock2D(g.Subrange(0, 2), 6, 8))
			dst := New[float64](p, ColBlock2D(g.Subrange(1, 4), 6, 8))
			if touch {
				src.FillFunc(func([]int) float64 { return 0 })
			}
			Assign(p, dst, src)
			res.local[p.ID()] = append([]float64(nil), dst.Local()...)
			if out := GatherGlobal(p, dst); out != nil {
				res.global = out
			}
		})
		res.events = col.Events()
		return res
	}
	for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
		got := run(false, eng)
		matchesOracle(t, "untouched source under "+eng.Name(), got, run(true, eng))
		if len(got.global) != 48 {
			t.Fatalf("gathered %d elements, want 48", len(got.global))
		}
		for i, v := range got.global {
			if v != 0 {
				t.Fatalf("destination element %d is %v", i, v)
			}
		}
	}
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
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(int8(b))
		}
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
		l, err := NewLayout(g, shape, axes, grid)
		if err != nil {
			return
		}
		if align := next(); align&1 == 1 {
			ashape, offs := make([]int, nd+(align>>1)&1), make([]int, nd)
			for d := range ashape {
				ashape[d] = next() % 24
			}
			for d := range offs {
				offs[d] = next() % 8
			}
			if l, err = NewAligned(l, ashape, offs); err != nil {
				return
			}
		}
		checkLayout(t, l)
	})
}

// checkLayout holds an accepted layout to the properties every distribution
// must have.
func checkLayout(t *testing.T, l *Layout) {
	total := 0
	for r := 0; r < l.g.Size(); r++ {
		n := l.LocalCount(r)
		total += n
		for i := 0; i < n; i++ {
			if idx := l.GlobalOfLocal(r, i); l.OwnerRank(idx...) != r {
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
