package group

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestWorld(t *testing.T) {
	g := World(8)
	if g.Size() != 8 {
		t.Fatalf("size = %d", g.Size())
	}
	for r := 0; r < 8; r++ {
		if g.Phys(r) != r {
			t.Errorf("Phys(%d) = %d, want identity", r, g.Phys(r))
		}
		if rank, ok := g.RankOf(r); !ok || rank != r {
			t.Errorf("RankOf(%d) = %d,%v", r, rank, ok)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := New([]int{1, 2, 1}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestNonContiguousGroup(t *testing.T) {
	g := MustNew([]int{5, 2, 9})
	if g.Size() != 3 {
		t.Fatalf("size = %d", g.Size())
	}
	if g.Phys(0) != 5 || g.Phys(1) != 2 || g.Phys(2) != 9 {
		t.Errorf("virtual order not preserved: %v", g.PhysAll())
	}
	if r, ok := g.RankOf(9); !ok || r != 2 {
		t.Errorf("RankOf(9) = %d,%v", r, ok)
	}
	if g.Contains(7) {
		t.Error("Contains(7) true")
	}
}

func TestSubrange(t *testing.T) {
	g := World(10)
	s := g.Subrange(3, 7)
	if s.Size() != 4 || s.Phys(0) != 3 || s.Phys(3) != 6 {
		t.Errorf("subrange wrong: %v", s.PhysAll())
	}
}

func TestSubrangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	World(4).Subrange(2, 2)
}

func TestEqual(t *testing.T) {
	a := World(4)
	b := MustNew([]int{0, 1, 2, 3})
	c := MustNew([]int{3, 2, 1, 0})
	if !a.Equal(b) {
		t.Error("equal groups reported unequal")
	}
	if a.Equal(c) {
		t.Error("different virtual orders reported equal")
	}
}

func TestUnion(t *testing.T) {
	a := MustNew([]int{4, 5})
	b := MustNew([]int{5, 6, 7})
	u := Union(a, b)
	want := []int{4, 5, 6, 7}
	got := u.PhysAll()
	if len(got) != len(want) {
		t.Fatalf("union = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
}

// refUnion is Union's general path on its own: the sorted, de-duplicated
// member list as a fresh group.
func refUnion(a, b *Group) *Group {
	seen := make(map[int]bool)
	var ids []int
	for _, id := range append(a.PhysAll(), b.PhysAll()...) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return MustNew(ids)
}

// TestUnionNestedContiguousReturnsContainer: when one contiguous group
// contains the other, Union returns the containing group itself, which
// equals what the general path builds; every other input — adjacent,
// overlapping but not nested, non-contiguous — still gets a fresh group
// with the same members in physical order.
func TestUnionNestedContiguousReturnsContainer(t *testing.T) {
	w := World(16)
	cases := []struct {
		name string
		a, b *Group
		fast bool
	}{
		{"equal", w.Subrange(2, 9), w.Subrange(2, 9), true},
		{"a contains b", w.Subrange(2, 12), w.Subrange(4, 7), true},
		{"b contains a", w.Subrange(5, 6), w, true},
		{"shared low edge", w.Subrange(3, 9), w.Subrange(3, 5), true},
		{"shared high edge", w.Subrange(6, 9), w.Subrange(3, 9), true},
		{"contained, built from ids", MustNew([]int{7, 8, 9}), w.Subrange(4, 12), true},
		{"adjacent", w.Subrange(0, 4), w.Subrange(4, 8), false},
		{"overlapping, not nested", w.Subrange(0, 6), w.Subrange(4, 10), false},
		{"disjoint with a gap", w.Subrange(0, 3), w.Subrange(9, 12), false},
		{"non-contiguous inside contiguous", MustNew([]int{5, 3, 9}), w.Subrange(2, 12), false},
		{"contiguous inside non-contiguous", w.Subrange(3, 5), MustNew([]int{6, 4, 3, 2}), false},
		{"both non-contiguous", MustNew([]int{9, 1}), MustNew([]int{1, 5}), false},
	}
	for _, c := range cases {
		for _, swap := range []bool{false, true} {
			a, b := c.a, c.b
			if swap {
				a, b = b, a
			}
			u, want := Union(a, b), refUnion(a, b)
			if !u.Equal(want) || !reflect.DeepEqual(u.PhysAll(), want.PhysAll()) {
				t.Errorf("%s (swapped %v): Union = %v, general path gives %v", c.name, swap, u, want)
			}
			if got := u == a || u == b; got != c.fast {
				t.Errorf("%s (swapped %v): returned an input group = %v, want %v", c.name, swap, got, c.fast)
			}
			for _, id := range want.PhysAll() {
				r, ok := u.RankOf(id)
				if wr, _ := want.RankOf(id); !ok || r != wr {
					t.Errorf("%s: RankOf(%d) = %d, %v; want %d", c.name, id, r, ok, wr)
				}
			}
		}
	}
}

func TestPartitionBasic(t *testing.T) {
	parent := World(10)
	p, err := NewPartition(parent, Sub("some", 3), Sub("many", 7))
	if err != nil {
		t.Fatal(err)
	}
	some, many := p.Group("some"), p.Group("many")
	if some.Size() != 3 || many.Size() != 7 {
		t.Fatalf("sizes %d/%d", some.Size(), many.Size())
	}
	// Contiguous in declaration order.
	if some.Phys(0) != 0 || some.Phys(2) != 2 || many.Phys(0) != 3 {
		t.Errorf("assignment not contiguous: some=%v many=%v", some.PhysAll(), many.PhysAll())
	}
	name, g, ok := p.SubgroupOf(5)
	if !ok || name != "many" || !g.Equal(many) {
		t.Errorf("SubgroupOf(5) = %q,%v,%v", name, g, ok)
	}
	if _, _, ok := p.SubgroupOf(11); ok {
		t.Error("SubgroupOf accepted non-member")
	}
	names := p.Names()
	if len(names) != 2 || names[0] != "some" || names[1] != "many" {
		t.Errorf("Names() = %v", names)
	}
}

func TestPartitionErrors(t *testing.T) {
	parent := World(10)
	cases := []struct {
		name  string
		specs []Spec
	}{
		{"sum too small", []Spec{Sub("a", 3), Sub("b", 3)}},
		{"sum too large", []Spec{Sub("a", 8), Sub("b", 8)}},
		{"zero size", []Spec{Sub("a", 0), Sub("b", 10)}},
		{"negative size", []Spec{Sub("a", -1), Sub("b", 11)}},
		{"duplicate name", []Spec{Sub("a", 5), Sub("a", 5)}},
		{"empty name", []Spec{Sub("", 10)}},
		{"no specs", nil},
	}
	for _, tc := range cases {
		if _, err := NewPartition(parent, tc.specs...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewPartition(nil, Sub("a", 1)); err == nil {
		t.Error("nil parent accepted")
	}
}

func TestUnknownSubgroupPanics(t *testing.T) {
	p := MustPartition(World(4), Sub("a", 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Group("b")
}

// Property: a partition assigns every parent processor to exactly one
// subgroup, and subgroups are disjoint with declared sizes.
func TestPartitionCoversParentProperty(t *testing.T) {
	f := func(seed uint8, cuts [3]uint8) bool {
		n := int(seed%29) + 2 // parent size 2..30
		parent := World(n)
		// Build 2..4 positive sizes summing to n.
		k := int(cuts[0]%3) + 2
		if k > n {
			k = n
		}
		sizes := make([]int, k)
		rest := n
		for i := 0; i < k-1; i++ {
			max := rest - (k - 1 - i)
			s := int(cuts[i%3])%max + 1
			sizes[i] = s
			rest -= s
		}
		sizes[k-1] = rest
		specs := make([]Spec, k)
		for i, s := range sizes {
			specs[i] = Spec{Name: string(rune('a' + i)), Size: s}
		}
		p, err := NewPartition(parent, specs...)
		if err != nil {
			return false
		}
		seen := make(map[int]int)
		for _, name := range p.Names() {
			g := p.Group(name)
			for _, id := range g.PhysAll() {
				seen[id]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualSplit(t *testing.T) {
	p, err := EqualSplit(World(10), "g", 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{p.Group("g0").Size(), p.Group("g1").Size(), p.Group("g2").Size()}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("sizes = %v", sizes)
	}
	if _, err := EqualSplit(World(2), "g", 3); err == nil {
		t.Error("oversplit accepted")
	}
	if _, err := EqualSplit(World(2), "g", 0); err == nil {
		t.Error("k=0 accepted")
	}
}
