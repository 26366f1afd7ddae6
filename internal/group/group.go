// Package group implements processor groups and task-partition templates —
// the structural half of the paper's task-parallelism model.
//
// A Group is an ordered set of physical processors; a processor's rank in
// the group is its virtual processor id, so a Group *is* the paper's
// virtual-to-physical processor mapping. A Partition is the realization of a
// TASK_PARTITION directive: it divides a parent group into named subgroups.
// The implementation is free to pick any assignment of physical processors
// to subgroups (Section 4); we use contiguous rank ranges in declaration
// order, which keeps subgroup communication local.
package group

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Group is an ordered set of physical processor ids. Rank r in the group is
// virtual processor r. Groups are immutable after creation.
//
// The overwhelmingly common shape — the world group and every contiguous
// subrange of it — maps virtual id r to physical id base+r, so those groups
// carry no rank map at all: lookups are arithmetic, and Subrange/Equal are
// O(1). That matters at scale: a P=65536 machine split into 1024 modules
// would otherwise materialize a fresh O(P) rank map on every processor that
// touches the partition, turning group bookkeeping into an O(P²) tax.
type Group struct {
	phys []int
	// contig marks phys[i] == base+i for all i; rank is then nil.
	contig bool
	base   int
	rank   map[int]int
}

// New creates a group over the given physical processors, in the given
// (virtual) order. It returns an error if the list is empty or contains
// duplicates.
func New(phys []int) (*Group, error) {
	if len(phys) == 0 {
		return nil, fmt.Errorf("group: empty processor list")
	}
	g := &Group{phys: append([]int(nil), phys...)}
	contig := true
	for i, id := range g.phys {
		if id != g.phys[0]+i {
			contig = false
			break
		}
	}
	if contig {
		g.contig, g.base = true, g.phys[0]
		return g, nil
	}
	g.rank = make(map[int]int, len(phys))
	for r, id := range g.phys {
		if _, dup := g.rank[id]; dup {
			return nil, fmt.Errorf("group: duplicate processor %d", id)
		}
		g.rank[id] = r
	}
	return g, nil
}

// MustNew is New but panics on error; for groups built from literals.
func MustNew(phys []int) *Group {
	g, err := New(phys)
	if err != nil {
		panic(err)
	}
	return g
}

// World returns the group of all n processors of a machine, identity-mapped
// (the startup mapping of Section 4).
func World(n int) *Group {
	phys := make([]int, n)
	for i := range phys {
		phys[i] = i
	}
	return MustNew(phys)
}

// Size returns the number of processors in the group.
func (g *Group) Size() int { return len(g.phys) }

// Phys returns the physical id of virtual processor r.
func (g *Group) Phys(r int) int {
	if r < 0 || r >= len(g.phys) {
		panic(fmt.Sprintf("group: virtual id %d out of range [0,%d)", r, len(g.phys)))
	}
	return g.phys[r]
}

// PhysAll returns a copy of the ordered physical id list.
func (g *Group) PhysAll() []int { return append([]int(nil), g.phys...) }

// RankOf returns the virtual id of physical processor id, or ok=false if the
// processor is not a member.
func (g *Group) RankOf(id int) (r int, ok bool) {
	if g.contig {
		r = id - g.base
		if r < 0 || r >= len(g.phys) {
			return 0, false
		}
		return r, true
	}
	r, ok = g.rank[id]
	return
}

// Contiguous returns base and true when the group maps virtual id r to
// physical id base+r; such a group is named by (base, Size()) alone.
func (g *Group) Contiguous() (base int, ok bool) { return g.base, g.contig }

// Contains reports whether physical processor id is a member.
func (g *Group) Contains(id int) bool {
	_, ok := g.RankOf(id)
	return ok
}

// Subrange returns the subgroup of virtual processors [lo, hi). Groups are
// immutable, so the subgroup shares the parent's backing storage; for
// contiguous groups this is allocation-free.
func (g *Group) Subrange(lo, hi int) *Group {
	if lo < 0 || hi > len(g.phys) || lo >= hi {
		panic(fmt.Sprintf("group: invalid subrange [%d,%d) of group of size %d", lo, hi, len(g.phys)))
	}
	if g.contig {
		return &Group{phys: g.phys[lo:hi], contig: true, base: g.base + lo}
	}
	return MustNew(g.phys[lo:hi])
}

// Equal reports whether two groups contain the same processors in the same
// virtual order.
func (g *Group) Equal(h *Group) bool {
	if g == h {
		return true
	}
	if len(g.phys) != len(h.phys) {
		return false
	}
	if g.contig && h.contig {
		return g.base == h.base
	}
	for i, id := range g.phys {
		if h.phys[i] != id {
			return false
		}
	}
	return true
}

// Union returns a group containing the members of both groups, ordered by
// physical id. It is used to compute the minimal participating set for
// parent-scope assignments between arrays mapped to different subgroups.
func Union(a, b *Group) *Group {
	// A contiguous group that contains the other contiguous group is the
	// union already (groups are immutable): the shape of every transfer
	// between a parent array and a subgroup array.
	if a.contig && b.contig {
		if a.base <= b.base && b.base+len(b.phys) <= a.base+len(a.phys) {
			return a
		}
		if b.base <= a.base && a.base+len(a.phys) <= b.base+len(b.phys) {
			return b
		}
	}
	seen := make(map[int]bool, a.Size()+b.Size())
	var ids []int
	for _, id := range a.phys {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, id := range b.phys {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return MustNew(ids)
}

func (g *Group) String() string {
	if len(g.phys) <= 8 {
		return fmt.Sprintf("group%v", g.phys)
	}
	return fmt.Sprintf("group[%d procs %d..%d]", len(g.phys), g.phys[0], g.phys[len(g.phys)-1])
}

// Spec names one subgroup of a partition and gives its processor count,
// mirroring one entry of a TASK_PARTITION directive.
type Spec struct {
	Name string
	Size int
}

// Sub is shorthand for constructing a Spec.
func Sub(name string, size int) Spec { return Spec{Name: name, Size: size} }

// Partition divides a parent group into named, disjoint subgroups whose
// sizes sum to the parent size — the realization of a TASK_PARTITION
// template. Subgroups occupy contiguous virtual-id ranges of the parent in
// declaration order.
type Partition struct {
	parent *Group
	specs  []Spec
	groups map[string]*Group
	order  []string
	// cum[i] is the first parent rank of subgroup i (cum[len(specs)] is the
	// parent size): membership resolves by rank lookup plus binary search,
	// with no per-processor table.
	cum []int
	// labelOnce/label cache the span label (see SpanLabel) so tracing a
	// wide partition does not rebuild the joined name list per processor.
	labelOnce sync.Once
	label     string
}

// NewPartition builds a partition of parent from the given specs. Every
// subgroup must have a unique non-empty name and a positive size, and the
// sizes must sum exactly to the parent group size (every current processor
// belongs to exactly one subgroup, as in the paper's examples).
func NewPartition(parent *Group, specs ...Spec) (*Partition, error) {
	if parent == nil {
		return nil, fmt.Errorf("group: nil parent for partition")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("group: partition needs at least one subgroup")
	}
	total := 0
	names := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("group: subgroup with empty name")
		}
		if names[s.Name] {
			return nil, fmt.Errorf("group: duplicate subgroup name %q", s.Name)
		}
		names[s.Name] = true
		if s.Size <= 0 {
			return nil, fmt.Errorf("group: subgroup %q has non-positive size %d", s.Name, s.Size)
		}
		total += s.Size
	}
	if total != parent.Size() {
		return nil, fmt.Errorf("group: subgroup sizes sum to %d but parent has %d processors", total, parent.Size())
	}
	p := &Partition{
		parent: parent,
		specs:  append([]Spec(nil), specs...),
		groups: make(map[string]*Group, len(specs)),
		cum:    make([]int, 1, len(specs)+1),
	}
	lo := 0
	for _, s := range specs {
		sub := parent.Subrange(lo, lo+s.Size)
		p.groups[s.Name] = sub
		p.order = append(p.order, s.Name)
		lo += s.Size
		p.cum = append(p.cum, lo)
	}
	return p, nil
}

// Parent returns the partitioned group.
func (p *Partition) Parent() *Group { return p.parent }

// Group returns the named subgroup; it panics on an unknown name since that
// is a programming error analogous to referencing an undeclared subgroup.
func (p *Partition) Group(name string) *Group {
	g, ok := p.groups[name]
	if !ok {
		panic(fmt.Sprintf("group: unknown subgroup %q (have %v)", name, p.order))
	}
	return g
}

// SubgroupOf returns the name and group of the subgroup containing physical
// processor id, or ok=false if id is not in the parent group.
func (p *Partition) SubgroupOf(id int) (name string, g *Group, ok bool) {
	i, ok := p.IndexOf(id)
	if !ok {
		return "", nil, false
	}
	name = p.order[i]
	return name, p.groups[name], true
}

// IndexOf returns the declaration-order index of the subgroup containing
// physical processor id, or ok=false if id is not in the parent group.
func (p *Partition) IndexOf(id int) (int, bool) {
	r, ok := p.parent.RankOf(id)
	if !ok {
		return 0, false
	}
	// Subgroup i covers parent ranks [cum[i], cum[i+1]).
	return sort.SearchInts(p.cum[1:], r+1), true
}

// SpanLabel returns the partition's task-region span label
// ("region:<names joined by +>:<parent>"), computed once and cached — a
// wide partition's label is O(subgroups) to build, and every traced
// processor brackets the region with it.
func (p *Partition) SpanLabel() string {
	p.labelOnce.Do(func() {
		p.label = "region:" + strings.Join(p.order, "+") + ":" + p.parent.String()
	})
	return p.label
}

// EqualSplit partitions parent into k equally sized subgroups named
// name0..name{k-1} with the given prefix; the first (size mod k) subgroups
// get one extra processor. Used for replicated data parallelism.
func EqualSplit(parent *Group, prefix string, k int) (*Partition, error) {
	if k < 1 || k > parent.Size() {
		return nil, fmt.Errorf("group: cannot split %d processors into %d subgroups", parent.Size(), k)
	}
	specs := make([]Spec, k)
	base, extra := parent.Size()/k, parent.Size()%k
	for i := range specs {
		sz := base
		if i < extra {
			sz++
		}
		specs[i] = Spec{Name: fmt.Sprintf("%s%d", prefix, i), Size: sz}
	}
	return NewPartition(parent, specs...)
}
