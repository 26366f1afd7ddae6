package dist

import (
	"testing"
	"testing/quick"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

func TestNewAlignedOwnership(t *testing.T) {
	g := group.World(4)
	base := MustLayout(g, []int{16}, []Axis{BlockAxis()}, []int{4}) // b = 4
	al, err := NewAligned(base, []int{6}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	// Element i of the aligned array is co-located with base element i+5.
	for i := 0; i < 6; i++ {
		if got, want := al.OwnerRank(i), base.OwnerRank(i+5); got != want {
			t.Errorf("aligned owner(%d) = %d, base owner(%d) = %d", i, got, i+5, want)
		}
	}
	// Counts: positions 5..10 -> base blocks: [5..7]->c1, [8..10]->c2.
	wantCounts := []int{0, 3, 3, 0}
	for c, w := range wantCounts {
		if got := al.LocalCount(c); got != w {
			t.Errorf("LocalCount(%d) = %d, want %d", c, got, w)
		}
	}
}

func TestNewAlignedCyclic(t *testing.T) {
	g := group.World(3)
	base := MustLayout(g, []int{12}, []Axis{CyclicAxis()}, []int{3})
	al, err := NewAligned(base, []int{7}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if al.OwnerRank(i) != (i+2)%3 {
			t.Errorf("owner(%d) = %d, want %d", i, al.OwnerRank(i), (i+2)%3)
		}
	}
}

func TestNewAlignedErrors(t *testing.T) {
	g := group.World(2)
	base := MustLayout(g, []int{10}, []Axis{BlockAxis()}, []int{2})
	if _, err := NewAligned(base, []int{6}, []int{5}); err == nil {
		t.Error("overflowing box accepted")
	}
	if _, err := NewAligned(base, []int{4}, []int{-1}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := NewAligned(base, []int{4, 4}, []int{0, 0}); err == nil {
		t.Error("rank mismatch accepted")
	}
	bc := MustLayout(g, []int{10}, []Axis{BlockCyclicAxis(2)}, []int{2})
	if _, err := NewAligned(bc, []int{4}, []int{1}); err == nil {
		t.Error("BLOCK_CYCLIC offset accepted")
	}
	if _, err := NewAligned(bc, []int{4}, []int{0}); err != nil {
		t.Errorf("zero-offset BLOCK_CYCLIC rejected: %v", err)
	}
}

// Property: aligned layouts keep the round-trip and partition invariants.
func TestAlignedRoundTripProperty(t *testing.T) {
	f := func(baseN, shapeSeed, offSeed, kindSeed, qSeed uint8) bool {
		bn := int(baseN)%40 + 4
		q := int(qSeed)%4 + 1
		var a Axis
		if kindSeed%2 == 0 {
			a = BlockAxis()
		} else {
			a = CyclicAxis()
		}
		g := group.World(q)
		base, err := NewLayout(g, []int{bn}, []Axis{a}, []int{q})
		if err != nil {
			return false
		}
		n := int(shapeSeed)%bn + 1
		off := int(offSeed) % (bn - n + 1)
		al, err := NewAligned(base, []int{n}, []int{off})
		if err != nil {
			return false
		}
		total := 0
		for r := 0; r < q; r++ {
			cnt := al.LocalCount(r)
			total += cnt
			prev := -1
			for l := 0; l < cnt; l++ {
				gi := refGlobalOfLocal(al, r, l)
				if gi[0] <= prev || gi[0] < 0 || gi[0] >= n {
					return false
				}
				prev = gi[0]
				if al.OwnerRank(gi...) != r {
					return false
				}
				if al.localOffset(gi, al.LocalShape(r)) != l {
					return false
				}
				if base.OwnerRank(gi[0]+off) != r {
					return false // misaligned with the template
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAlignedAssignLocality: assigning between an array and a
// properly-aligned section of a template array needs no communication —
// the point of ALIGN.
func TestAlignedAssignLocality(t *testing.T) {
	m := testMachine(4)
	stats := m.Run(func(p *machine.Proc) {
		g := group.World(4)
		base := MustLayout(g, []int{16}, []Axis{BlockAxis()}, []int{4})
		template := New[float64](p, base)
		template.FillFunc(func(idx []int) float64 { return float64(idx[0]) })
		alLayout, err := NewAligned(base, []int{8}, []int{4})
		if err != nil {
			t.Error(err)
			return
		}
		section := New[float64](p, alLayout)
		// Copy template[4..12) into the aligned array: every element is
		// co-located, so no messages may flow.
		CopySection(p, section, []int{0}, template, []int{4}, []int{8})
		section.eachLocal(func(off int, idx []int) {
			if section.Local()[off] != float64(idx[0]+4) {
				t.Errorf("section[%d] = %v", idx[0], section.Local()[off])
			}
		})
	})
	for _, ps := range stats.Procs {
		if ps.MsgsSent != 0 {
			t.Errorf("proc %d sent %d messages for an aligned copy", ps.ID, ps.MsgsSent)
		}
	}
}

func TestAlignedArrayWith2D(t *testing.T) {
	m := testMachine(4)
	m.Run(func(p *machine.Proc) {
		g := group.World(4)
		base := RowBlock2D(g, 16, 8)
		al, err := NewAligned(base, []int{8, 8}, []int{4, 0})
		if err != nil {
			t.Fatal(err)
		}
		a := New[int64](p, al)
		a.FillFunc(func(idx []int) int64 { return int64(idx[0]*8 + idx[1]) })
		full := GatherGlobal(p, a)
		if full != nil {
			for i := 0; i < 64; i++ {
				if full[i] != int64(i) {
					t.Errorf("full[%d] = %d", i, full[i])
				}
			}
		}
	})
}
