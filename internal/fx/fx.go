// Package fx implements the paper's integrated task- and data-parallelism
// model as a library-level SPMD runtime — the primary contribution of
// Subhlok & Yang (PPoPP '97).
//
// Programs are Go closures executed by every simulated processor. The four
// directives of the paper map onto API calls:
//
//	TASK_PARTITION p :: a(n), b(m)   ->   part := p.Partition(group.Sub("a", n), group.Sub("b", m))
//	BEGIN/END TASK_REGION            ->   p.TaskRegion(part, func(r *fx.Region) { ... })
//	ON SUBGROUP a ... END ON         ->   r.On("a", func() { ... })
//	SUBGROUP(a) :: x                 ->   x := dist.New[...](p, layoutOver(part.Group("a")))
//
// Each processor keeps a stack of processor groups — the paper's stack of
// virtual-to-physical processor mappings (Section 4). The top of the stack
// is the *current* group; NumberOfProcessors() and VP() are relative to it.
// Entering an On block pushes the subgroup; leaving pops it. Processors that
// are not members of an On block's subgroup skip past it without
// synchronizing, which is what allows pipelined task parallelism.
//
// Scalars are replicated by construction: every simulated processor runs the
// same closure with its own copy of every Go local, exactly the "replicate
// all unmapped scalars" rule of Section 4.
package fx

import (
	"fmt"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Observability: when a tracer is installed on the machine, the runtime
// emits a named span for every task region and every On/OnAny/OnProcs block.
// Span labels follow the "op:detail:group[...]" convention shared with the
// comm collectives, so internal/metrics can aggregate by (group, operation)
// and internal/trace can attribute critical-path time to pipeline stages.
// The Event.Depth recorded with each fx span equals the mapping-stack depth
// of the scope it brackets minus one (the world frame opens no span), so
// nested task parallelism is visible in the trace. All span work is guarded
// by Tracing(); untraced runs pay nothing.

// regionLabel returns the span label for a task region over part; the
// partition caches it, so wide partitions build the joined name list once.
func regionLabel(part *group.Partition) string {
	return part.SpanLabel()
}

// onLabel builds the span label for an On block entering subgroup name.
func onLabel(name string, sub *group.Group) string {
	return "on:" + name + ":" + sub.String()
}

// frame is one level of the processor-mapping stack.
type frame struct {
	g        *group.Group
	inRegion bool // a task region is active at this level
}

// Proc is the per-processor SPMD view. It embeds the simulated machine
// processor, so low-level Send/Recv/Compute are directly available.
type Proc struct {
	*machine.Proc
	stack  []frame
	inline [3]frame // stack's first frames (world, module, stage), held in the Proc
}

// Run executes body as an SPMD program over all processors of m, with the
// group of all processors as the initial current group (the identity mapping
// of Section 4), and returns per-processor virtual-time statistics.
func Run(m *machine.Machine, body func(*Proc)) machine.RunStats {
	world := group.World(m.N())
	// One arena of per-processor states, parallel to the machine's own.
	ps := make([]Proc, m.N())
	return m.Run(func(mp *machine.Proc) {
		p := &ps[mp.ID()]
		p.Proc = mp
		p.stack = append(p.inline[:0], frame{g: world})
		body(p)
		if len(p.stack) != 1 {
			panic(fmt.Sprintf("fx: processor %d finished with %d mapping frames on the stack", mp.ID(), len(p.stack)))
		}
	})
}

// Group returns the current processor group (top of the mapping stack).
func (p *Proc) Group() *group.Group { return p.stack[len(p.stack)-1].g }

// NumberOfProcessors returns the size of the current group — the paper's
// NUMBER_OF_PROCESSORS() intrinsic.
func (p *Proc) NumberOfProcessors() int { return p.Group().Size() }

// VP returns this processor's virtual id within the current group.
func (p *Proc) VP() int {
	r, ok := p.Group().RankOf(p.ID())
	if !ok {
		panic(fmt.Sprintf("fx: processor %d is not a member of its own current group", p.ID()))
	}
	return r
}

// Depth returns the nesting depth of the mapping stack (1 = top level).
func (p *Proc) Depth() int { return len(p.stack) }

// Barrier synchronizes the current group.
func (p *Proc) Barrier() { comm.Barrier(p.Proc, p.Group()) }

// Partition declares a TASK_PARTITION template over the current group.
// Subgroup sizes must sum to NumberOfProcessors(); sizes may be computed
// from runtime values (the paper allows expressions over procedure
// parameters). Every member of the current group must execute the same call.
func (p *Proc) Partition(specs ...group.Spec) *group.Partition {
	part, err := group.NewPartition(p.Group(), specs...)
	if err != nil {
		panic(fmt.Sprintf("fx: processor %d: %v", p.ID(), err))
	}
	return part
}

// Region is the handle available inside a task region. Code run directly on
// it is in the *parent scope* (executed by the whole partitioned group);
// On() enters *subgroup scope*.
type Region struct {
	p    *Proc
	part *group.Partition
}

// TaskRegion activates part — which must partition the current group — and
// runs body with the region handle. This is BEGIN/END TASK_REGION. Lexical
// nesting of task regions is not permitted (per the paper); dynamic nesting
// through an On block is.
//
// No barrier is implied at entry or exit: synchronization comes only from
// data movement, which is what lets consecutive region iterations pipeline.
func (p *Proc) TaskRegion(part *group.Partition, body func(*Region)) {
	top := &p.stack[len(p.stack)-1]
	if top.inRegion {
		panic(fmt.Sprintf("fx: processor %d: lexically nested task region (use a procedure called from an ON block for dynamic nesting)", p.ID()))
	}
	if !part.Parent().Equal(top.g) {
		panic(fmt.Sprintf("fx: processor %d: partition parent %v does not match current group %v", p.ID(), part.Parent(), top.g))
	}
	top.inRegion = true
	defer func() { p.stack[len(p.stack)-1].inRegion = false }()
	if p.Tracing() {
		p.BeginSpan(regionLabel(part))
		defer p.EndSpan()
	}
	body(&Region{p: p, part: part})
}

// Partition returns the partition this region activated.
func (r *Region) Partition() *group.Partition { return r.part }

// Group returns the named subgroup of the active partition. Any member of
// the region may call it (e.g. to address another subgroup in parent scope).
func (r *Region) Group(name string) *group.Group { return r.part.Group(name) }

// MySubgroup returns the name of the subgroup containing this processor.
func (r *Region) MySubgroup() string {
	name, _, ok := r.part.SubgroupOf(r.p.ID())
	if !ok {
		panic(fmt.Sprintf("fx: processor %d not assigned to any subgroup", r.p.ID()))
	}
	return name
}

// On executes body on the named subgroup only — the ON SUBGROUP directive.
// Members enter with the subgroup pushed as the current group (their
// mapping stack grows, per Section 4); non-members return immediately
// without synchronizing, which is what lets them "skip past the region".
func (r *Region) On(name string, body func()) {
	sub := r.part.Group(name)
	if !sub.Contains(r.p.ID()) {
		return
	}
	r.p.push(sub)
	defer r.p.pop()
	if r.p.Tracing() {
		r.p.BeginSpan(onLabel(name, sub))
		defer r.p.EndSpan()
	}
	body()
}

// OnAny runs the body selected by this processor's subgroup: bodies maps
// subgroup name to the code for that subgroup. Missing names simply skip.
// It is sugar for writing several disjoint On blocks.
func (r *Region) OnAny(bodies map[string]func()) {
	name, sub, ok := r.part.SubgroupOf(r.p.ID())
	if !ok {
		return
	}
	body, ok := bodies[name]
	if !ok {
		return
	}
	r.p.push(sub)
	defer r.p.pop()
	if r.p.Tracing() {
		r.p.BeginSpan(onLabel(name, sub))
		defer r.p.EndSpan()
	}
	body()
}

func (p *Proc) push(g *group.Group) { p.stack = append(p.stack, frame{g: g}) }

func (p *Proc) pop() { p.stack = p.stack[:len(p.stack)-1] }

// OnProcs runs body on the rectilinear subset [lo, hi) of the current
// group's virtual processors, without a declared partition. This models the
// HPF 2.0 approved-extension style ON clause the paper compares against
// (Section 6): more flexible (the subset may be computed at run time), but
// restricted to rectilinear subsets. Non-members skip.
func (p *Proc) OnProcs(lo, hi int, body func()) {
	g := p.Group()
	if lo < 0 || hi > g.Size() || lo >= hi {
		panic(fmt.Sprintf("fx: OnProcs invalid range [%d,%d) of %d processors", lo, hi, g.Size()))
	}
	r := -1
	if rr, ok := g.RankOf(p.ID()); ok {
		r = rr
	}
	if r < lo || r >= hi {
		return
	}
	sub := g.Subrange(lo, hi)
	p.push(sub)
	defer p.pop()
	if p.Tracing() {
		p.BeginSpan(onLabel(fmt.Sprintf("[%d,%d)", lo, hi), sub))
		defer p.EndSpan()
	}
	body()
}

// Bcast broadcasts data from virtual processor root of the current group.
func Bcast[T any](p *Proc, root int, data []T) []T {
	return comm.Bcast(p.Proc, p.Group(), root, data)
}

// BcastVal broadcasts a single value from virtual processor root.
func BcastVal[T any](p *Proc, root int, v T) T {
	out := comm.Bcast(p.Proc, p.Group(), root, []T{v})
	return out[0]
}

// AllReduce combines x across the current group.
func AllReduce[T any](p *Proc, x T, op func(a, b T) T) T {
	return comm.AllReduce(p.Proc, p.Group(), x, op)
}

// Var is a subgroup-mapped scalar variable: the library analogue of a
// SUBGROUP-mapped variable that is not an array. It checks the paper's
// access rule — subgroup variables may be accessed only when the current
// group is (a subset of) the owner — which the Fx compiler enforced
// statically.
type Var[T any] struct {
	owner *group.Group
	val   T
	p     *Proc
}

// NewVar declares a scalar mapped to owner. Every processor may hold the
// descriptor; only owner members may Get/Set while executing inside owner.
func NewVar[T any](p *Proc, owner *group.Group) *Var[T] {
	return &Var[T]{owner: owner, p: p}
}

func (v *Var[T]) check(op string) {
	if !v.owner.Contains(v.p.ID()) {
		panic(fmt.Sprintf("fx: %s of subgroup variable by non-member processor %d (owner %v)", op, v.p.ID(), v.owner))
	}
	// Legal scopes per Section 2.1: subgroup scope (current group contained
	// in the owner) or parent scope (owner contained in the current group).
	cur := v.p.Group()
	contained := func(inner, outer *group.Group) bool {
		for _, id := range inner.PhysAll() {
			if !outer.Contains(id) {
				return false
			}
		}
		return true
	}
	if !contained(cur, v.owner) && !contained(v.owner, cur) {
		panic(fmt.Sprintf("fx: %s of subgroup variable owned by %v from unrelated group %v", op, v.owner, cur))
	}
}

// Get returns the variable's value after checking the access rule.
func (v *Var[T]) Get() T {
	v.check("read")
	return v.val
}

// Set stores the variable's value after checking the access rule.
func (v *Var[T]) Set(x T) {
	v.check("write")
	v.val = x
}
