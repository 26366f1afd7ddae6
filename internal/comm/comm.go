// Package comm implements collective communication scoped to processor
// groups: subset barriers, broadcast, reduction and gather. All
// collectives are built from the machine layer's point-to-point messages, so
// their virtual-time cost automatically scales with the *subgroup* size —
// the "localization" property Section 4 of the paper identifies as critical
// for exploiting task parallelism. No global state is involved: a barrier on
// a 5-processor subgroup touches only those 5 processors.
//
// All collectives must be called by every member of the group (SPMD
// convention) and by no one else. Message matching relies on per-ordered-pair
// FIFO order, so no tags are needed.
package comm

import (
	"fmt"
	"reflect"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// ElemBytes returns the in-memory size of one element of type T, used for
// message cost accounting.
func ElemBytes[T any]() int {
	return int(reflect.TypeOf((*T)(nil)).Elem().Size())
}

// rankIn returns p's rank in g, panicking if p is not a member — calling a
// collective from a non-member is an SPMD protocol violation.
func rankIn(p *machine.Proc, g *group.Group) int {
	r, ok := g.RankOf(p.ID())
	if !ok {
		panic(fmt.Sprintf("comm: processor %d is not a member of %v", p.ID(), g))
	}
	return r
}

// span opens a group-scoped span "op:group[...]" around a collective when a
// tracer is installed, and returns whether EndSpan must be called. The label
// is built only when tracing, so untraced collectives allocate nothing extra.
// Single-processor groups take the n == 1 early-outs before the span opens:
// a degenerate collective costs nothing and is not worth a trace row.
func span(p *machine.Proc, op string, g *group.Group) bool {
	if !p.Tracing() {
		return false
	}
	p.BeginSpan(op + ":" + g.String())
	return true
}

// Send transmits a copy of data to the processor with virtual id dstRank in
// g. The copy makes it safe for the caller to reuse data immediately; an
// empty payload skips the copy entirely and sends a nil slice.
func Send[T any](p *machine.Proc, g *group.Group, dstRank int, data []T) {
	var buf []T
	if len(data) > 0 {
		buf = append([]T(nil), data...)
	}
	sendOwned(p, g, dstRank, buf)
}

// sendOwned transmits data itself, without Send's copy: the caller hands
// over a slice nobody else holds.
func sendOwned[T any](p *machine.Proc, g *group.Group, dstRank int, data []T) {
	p.Send(g.Phys(dstRank), data, len(data)*ElemBytes[T]())
}

// Recv receives a []T from the processor with virtual id srcRank in g.
func Recv[T any](p *machine.Proc, g *group.Group, srcRank int) []T {
	msg := p.Recv(g.Phys(srcRank))
	data, ok := msg.Data.([]T)
	if !ok {
		panic(fmt.Sprintf("comm: processor %d expected []%T from rank %d, got %T",
			p.ID(), *new(T), srcRank, msg.Data))
	}
	return data
}

// SendVal transmits a single value: the value itself, with the byte count of
// a one-element slice, so a send allocates at most its interface box.
func SendVal[T any](p *machine.Proc, g *group.Group, dstRank int, v T) {
	p.Send(g.Phys(dstRank), v, ElemBytes[T]())
}

// RecvVal receives a single value sent by SendVal.
func RecvVal[T any](p *machine.Proc, g *group.Group, srcRank int) T {
	return p.Recv(g.Phys(srcRank)).Data.(T)
}

// barrierToken is the tiny payload exchanged by barrier rounds.
type barrierToken struct{}

// Barrier synchronizes the members of g with a dissemination barrier:
// ceil(log2 |g|) rounds of point-to-point messages. On return every member's
// clock is at least the maximum member clock at entry (plus the barrier's
// communication cost).
func Barrier(p *machine.Proc, g *group.Group) {
	n := g.Size()
	if n == 1 {
		return
	}
	r := rankIn(p, g)
	if span(p, "barrier", g) {
		defer p.EndSpan()
	}
	for k := 1; k < n; k <<= 1 {
		dst := (r + k) % n
		src := (r - k + n) % n
		p.Send(g.Phys(dst), barrierToken{}, 4)
		msg := p.Recv(g.Phys(src))
		if _, ok := msg.Data.(barrierToken); !ok {
			panic(fmt.Sprintf("comm: processor %d barrier round received %T", p.ID(), msg.Data))
		}
	}
}

// Bcast distributes root's data to every member of g using a binomial tree
// and returns each member's copy. rootRank is a virtual id in g. Non-root
// callers may pass nil. On a single-member group the input slice is
// returned as-is — no message, no copy — so callers must treat the result
// as read-only or potentially aliasing their input (they already must: the
// root's own return may share memory with what it sent).
func Bcast[T any](p *machine.Proc, g *group.Group, rootRank int, data []T) []T {
	n := g.Size()
	r := rankIn(p, g)
	if n == 1 {
		return data
	}
	if span(p, "bcast", g) {
		defer p.EndSpan()
	}
	rel := (r - rootRank + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + rootRank) % n
			data = Recv[T](p, g, src)
			break
		}
		mask <<= 1
	}
	if rel == 0 {
		data = append([]T(nil), data...)
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + rootRank) % n
			Send(p, g, dst, data)
		}
		mask >>= 1
	}
	return data
}

// Reduce combines one value from every member with op using a binomial tree
// and returns the result at rootRank (other members get the zero value of
// T). For non-commutative ops the combine order is the tree order, which is
// deterministic.
func Reduce[T any](p *machine.Proc, g *group.Group, rootRank int, x T, op func(a, b T) T) T {
	n := g.Size()
	r := rankIn(p, g)
	if n > 1 && span(p, "reduce", g) {
		defer p.EndSpan()
	}
	rel := (r - rootRank + n) % n
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			src := rel | mask
			if src < n {
				y := RecvVal[T](p, g, (src+rootRank)%n)
				x = op(x, y)
			}
		} else {
			dst := (rel - mask + rootRank) % n
			SendVal(p, g, dst, x)
			var zero T
			return zero
		}
		mask <<= 1
	}
	return x
}

// AllReduce combines one value from every member and returns the result on
// all members.
func AllReduce[T any](p *machine.Proc, g *group.Group, x T, op func(a, b T) T) T {
	if g.Size() > 1 && span(p, "allreduce", g) {
		defer p.EndSpan()
	}
	v := Reduce(p, g, 0, x, op)
	res := Bcast(p, g, 0, []T{v})
	return res[0]
}

// ReduceSlice combines equal-length slices elementwise with op, leaving the
// result at rootRank (nil elsewhere). It reuses the binomial tree of Reduce.
func ReduceSlice[T any](p *machine.Proc, g *group.Group, rootRank int, x []T, op func(a, b T) T) []T {
	n := g.Size()
	r := rankIn(p, g)
	if n > 1 && span(p, "reduce", g) {
		defer p.EndSpan()
	}
	acc := append([]T(nil), x...)
	rel := (r - rootRank + n) % n
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			src := rel | mask
			if src < n {
				y := Recv[T](p, g, (src+rootRank)%n)
				if len(y) != len(acc) {
					panic(fmt.Sprintf("comm: ReduceSlice length mismatch %d vs %d", len(y), len(acc)))
				}
				for i := range acc {
					acc[i] = op(acc[i], y[i])
				}
			}
		} else {
			dst := (rel - mask + rootRank) % n
			sendOwned(p, g, dst, acc)
			return nil
		}
		mask <<= 1
	}
	return acc
}

// Gather collects each member's slice at rootRank, ordered by virtual id.
// Non-root members receive nil.
func Gather[T any](p *machine.Proc, g *group.Group, rootRank int, local []T) [][]T {
	n := g.Size()
	r := rankIn(p, g)
	if n > 1 && span(p, "gather", g) {
		defer p.EndSpan()
	}
	if r != rootRank {
		Send(p, g, rootRank, local)
		return nil
	}
	parts := make([][]T, n)
	parts[r] = append([]T(nil), local...)
	for src := 0; src < n; src++ {
		if src == rootRank {
			continue
		}
		parts[src] = Recv[T](p, g, src)
	}
	return parts
}

// GatherFlat is Gather followed by concatenation in virtual-id order.
func GatherFlat[T any](p *machine.Proc, g *group.Group, rootRank int, local []T) []T {
	parts := Gather(p, g, rootRank, local)
	if parts == nil {
		return nil
	}
	var out []T
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// AllGather collects every member's slice on every member, ordered by
// virtual id (gather to rank 0 followed by broadcast of sizes and data).
func AllGather[T any](p *machine.Proc, g *group.Group, local []T) [][]T {
	if g.Size() > 1 && span(p, "allgather", g) {
		defer p.EndSpan()
	}
	parts := Gather(p, g, 0, local)
	var flat []T
	var sizes []int
	if parts != nil {
		for _, part := range parts {
			sizes = append(sizes, len(part))
			flat = append(flat, part...)
		}
	}
	sizes = Bcast(p, g, 0, sizes)
	flat = Bcast(p, g, 0, flat)
	out := make([][]T, g.Size())
	off := 0
	for i, sz := range sizes {
		out[i] = flat[off : off+sz]
		off += sz
	}
	return out
}
