package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/trace"
)

// The per-element reference. refRemapPerm, refGatherGlobal and
// refScatterGlobal are the bodies remap (then remapPerm), GatherGlobal and
// ScatterGlobal had before communication sets were computed in closed form
// (commset.go); refRemap and refCopySection are the per-element Remap and
// the CopySection built on it, from before CopySection became remap over
// two boxes. They are moved here verbatim together with the helpers they
// called, so the production tree keeps one path and this file keeps the
// oracle it is checked against: same destination contents, same messages
// in the same order at the same virtual times.

func rowMajorStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

func refCoordsOfRank(l *Layout, r int) []int {
	c := make([]int, len(l.grid))
	for i := range l.grid {
		c[i] = (r / l.gridStride[i]) % l.grid[i]
	}
	return c
}

func refLocalShape(l *Layout, rank int) []int {
	c := refCoordsOfRank(l, rank)
	out := make([]int, len(l.dims))
	for i, d := range l.dims {
		out[i] = d.localCount(c[i])
	}
	return out
}

func refLocalCount(l *Layout, rank int) int {
	n := 1
	for _, e := range refLocalShape(l, rank) {
		n *= e
	}
	return n
}

func refGlobalOfLocal(l *Layout, rank, offset int) []int {
	c := refCoordsOfRank(l, rank)
	ls := refLocalShape(l, rank)
	idx := make([]int, len(l.dims))
	for i := len(l.dims) - 1; i >= 0; i-- {
		li := offset % ls[i]
		offset /= ls[i]
		idx[i] = l.dims[i].globalOf(c[i], li)
	}
	return idx
}

func refEachLocal[T any](a *Array[T], visit func(off int, idx []int)) {
	nd := len(a.localShape)
	li := make([]int, nd)
	gi := make([]int, nd)
	c := refCoordsOfRank(a.l, a.rank)
	total := len(a.local())
	for off := 0; off < total; off++ {
		for d := 0; d < nd; d++ {
			gi[d] = a.l.dims[d].globalOf(c[d], li[d])
		}
		visit(off, gi)
		for d := nd - 1; d >= 0; d-- {
			li[d]++
			if li[d] < a.localShape[d] {
				break
			}
			li[d] = 0
		}
	}
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func refRemapPerm[T any](p *machine.Proc, dst, src *Array[T], perm []int) {
	if src.l.Rank() != dst.l.Rank() || len(perm) != dst.l.Rank() {
		panic(fmt.Sprintf("dist: remap rank mismatch: src %v dst %v perm %v", src.l, dst.l, perm))
	}
	for d := range perm {
		if src.l.shape[perm[d]] != dst.l.shape[d] {
			panic(fmt.Sprintf("dist: remap shape mismatch: src %v dst %v perm %v", src.l.shape, dst.l.shape, perm))
		}
	}
	isSender := src.rank >= 0
	isReceiver := dst.rank >= 0
	if !isSender && !isReceiver {
		return // minimal processor subset: not a participant
	}

	elemBytes := comm.ElemBytes[T]()
	myID := p.ID()

	if isSender {
		// Enumerate my source elements in destination row-major order and
		// bucket values per destination rank.
		nd := src.l.Rank()
		srcCoords := refCoordsOfRank(src.l, src.rank)
		// Iterate src dims in order perm[0] (outermost) .. perm[nd-1].
		counters := make([]int, nd)  // counter for src dim perm[d]
		srcLocal := make([]int, nd)  // local index per src dim
		srcGlobal := make([]int, nd) // global index per src dim
		dstGlobal := make([]int, nd)
		// Local extent per iterated position.
		extents := make([]int, nd)
		for d := 0; d < nd; d++ {
			extents[d] = src.localShape[perm[d]]
		}
		total := 1
		for _, e := range extents {
			total *= e
		}
		buckets := make(map[int][]T)
		if total > 0 && len(src.local()) > 0 {
			for it := 0; it < total; it++ {
				for d := 0; d < nd; d++ {
					sd := perm[d]
					srcLocal[sd] = counters[d]
					srcGlobal[sd] = src.l.dims[sd].globalOf(srcCoords[sd], counters[d])
					dstGlobal[d] = srcGlobal[sd]
				}
				dstRank := dst.l.OwnerRank(dstGlobal...)
				if dst.l.g.Phys(dstRank) != myID {
					// Local source offset in natural src row-major order.
					off := 0
					for sd := 0; sd < nd; sd++ {
						off = off*src.localShape[sd] + srcLocal[sd]
					}
					buckets[dstRank] = append(buckets[dstRank], src.local()[off])
				}
				for d := nd - 1; d >= 0; d-- {
					counters[d]++
					if counters[d] < extents[d] {
						break
					}
					counters[d] = 0
				}
			}
		}
		// Send non-empty buckets in destination-rank order (determinism).
		for r := 0; r < dst.l.g.Size(); r++ {
			if vals := buckets[r]; len(vals) > 0 {
				p.Send(dst.l.g.Phys(r), &part[T]{vals: vals}, len(vals)*elemBytes)
			}
		}
	}

	if isReceiver {
		// Enumerate my destination elements in local row-major order (=
		// destination global row-major restricted to my set); resolve each
		// from local source storage or from the per-sender streams.
		nd := dst.l.Rank()
		srcGlobal := make([]int, nd)
		type pending struct {
			offsets []int
		}
		want := make(map[int]*pending) // src rank -> dst local offsets in order
		var srcOrder []int
		refEachLocal(dst, func(off int, dstGlobal []int) {
			for d := 0; d < nd; d++ {
				srcGlobal[perm[d]] = dstGlobal[d]
			}
			sRank := src.l.OwnerRank(srcGlobal...)
			if src.l.g.Phys(sRank) == myID {
				// Local copy path (also covers overlapping groups).
				soff := src.l.localOffset(srcGlobal, src.localShape)
				dst.local()[off] = src.local()[soff]
				return
			}
			pd := want[sRank]
			if pd == nil {
				pd = &pending{}
				want[sRank] = pd
				srcOrder = append(srcOrder, sRank)
			}
			pd.offsets = append(pd.offsets, off)
		})
		// Receive from senders in ascending source-rank order. Senders are
		// distinct physical processors, so per-pair FIFO plus identical
		// enumeration order guarantees the k-th value from a sender is for
		// the k-th offset recorded for it.
		for _, s := range sortedInts(srcOrder) {
			vals, _ := recvSlice[T](p, src.l.g.Phys(s))
			offs := want[s].offsets
			if len(vals) != len(offs) {
				panic(fmt.Sprintf("dist: processor %d expected %d elements from rank %d, got %d", myID, len(offs), s, len(vals)))
			}
			for i, off := range offs {
				dst.local()[off] = vals[i]
			}
		}
	}
}

// refRemap copies elements of src into dst under an arbitrary (partial) index
// mapping: for every source index S, mapIdx may fill dst index D (returning
// true) or skip the element (returning false). It generalizes Assign,
// Transpose2D and the HPF shift/section operations. Unmapped destination
// elements are left untouched.
//
// Matching protocol: the sender enumerates its own source elements in local
// row-major order; the receiver reproduces, for every source rank, that
// rank's enumeration from the layout alone. Both therefore agree on the
// per-pair element sequence without index headers. The receiver pass costs
// O(global source size / receivers) per receiver in the worst case; the
// structured operations below keep sections small where it matters.
//
// mapIdx must be deterministic and must not retain its argument slices
// (they are reused across calls). Participation is minimal: processors
// owning neither source nor destination return immediately.
func refRemap[T any](p *machine.Proc, dst, src *Array[T], mapIdx func(srcIdx []int, dstIdx []int) bool) {
	isSender := src.rank >= 0
	isReceiver := dst.rank >= 0
	if !isSender && !isReceiver {
		return
	}
	elemBytes := comm.ElemBytes[T]()
	myID := p.ID()
	nd := dst.l.Rank()
	dstIdx := make([]int, nd)

	if isSender {
		buckets := make(map[int][]T)
		src.eachLocal(func(off int, srcIdx []int) {
			if !mapIdx(srcIdx, dstIdx) {
				return
			}
			r := dst.l.OwnerRank(dstIdx...)
			if dst.l.g.Phys(r) == myID {
				// Local path: place immediately (the receiver pass below
				// skips self pairs).
				dst.local()[dst.l.localOffset(dstIdx, dst.localShape)] = src.local()[off]
				return
			}
			buckets[r] = append(buckets[r], src.local()[off])
		})
		for r := 0; r < dst.l.g.Size(); r++ {
			if vals := buckets[r]; len(vals) > 0 {
				p.Send(dst.l.g.Phys(r), &part[T]{vals: vals}, len(vals)*elemBytes)
			}
		}
	}

	if isReceiver && len(dst.local()) > 0 {
		var offs []int
		for s := 0; s < src.l.g.Size(); s++ {
			if src.l.g.Phys(s) == myID {
				continue // local path handled on the sender side
			}
			// Destination offsets expected from s, in s's enumeration order.
			offs = offs[:0]
			src.l.eachLocalOf(s, func(_ int, srcIdx []int) {
				if mapIdx(srcIdx, dstIdx) && dst.l.OwnerRank(dstIdx...) == dst.rank {
					offs = append(offs, dst.l.localOffset(dstIdx, dst.localShape))
				}
			})
			if len(offs) == 0 {
				continue
			}
			vals, _ := recvSlice[T](p, src.l.g.Phys(s))
			if len(vals) != len(offs) {
				panic(fmt.Sprintf("dist: Remap expected %d elements from rank %d, got %d", len(offs), s, len(vals)))
			}
			for i, off := range offs {
				dst.local()[off] = vals[i]
			}
		}
	}
}

// refCopySection copies the box of the given shape starting at srcOff in src
// to the box starting at dstOff in dst — the array-section assignment
// multiblock codes use to exchange block boundaries. Boxes must fit in both
// arrays.
func refCopySection[T any](p *machine.Proc, dst *Array[T], dstOff []int, src *Array[T], srcOff, shape []int) {
	nd := src.l.Rank()
	if dst.l.Rank() != nd || len(dstOff) != nd || len(srcOff) != nd || len(shape) != nd {
		panic(fmt.Sprintf("dist: CopySection rank mismatch (src rank %d, dst rank %d, offs %d/%d, shape %d)",
			nd, dst.l.Rank(), len(srcOff), len(dstOff), len(shape)))
	}
	for d := 0; d < nd; d++ {
		if srcOff[d] < 0 || srcOff[d]+shape[d] > src.l.shape[d] ||
			dstOff[d] < 0 || dstOff[d]+shape[d] > dst.l.shape[d] || shape[d] <= 0 {
			panic(fmt.Sprintf("dist: CopySection box out of range: srcOff %v dstOff %v shape %v src %v dst %v",
				srcOff, dstOff, shape, src.l.shape, dst.l.shape))
		}
	}
	refRemap(p, dst, src, func(srcIdx, dstIdx []int) bool {
		for d := 0; d < nd; d++ {
			rel := srcIdx[d] - srcOff[d]
			if rel < 0 || rel >= shape[d] {
				return false
			}
			dstIdx[d] = dstOff[d] + rel
		}
		return true
	})
}

func refGatherGlobal[T any](p *machine.Proc, a *Array[T]) []T {
	if a.rank < 0 {
		return nil
	}
	g := a.l.g
	if a.rank != 0 {
		if len(a.local()) > 0 {
			vals := append([]T(nil), a.local()...)
			p.Send(g.Phys(0), &part[T]{vals: vals}, len(vals)*comm.ElemBytes[T]())
		}
		return nil
	}
	out := make([]T, a.l.Size())
	strides := rowMajorStrides(a.l.shape)
	place := func(rank int, vals []T) {
		off := 0
		for _, v := range vals {
			gi := refGlobalOfLocal(a.l, rank, off)
			flat := 0
			for d, x := range gi {
				flat += x * strides[d]
			}
			out[flat] = v
			off++
		}
	}
	place(0, a.local())
	for r := 1; r < g.Size(); r++ {
		if refLocalCount(a.l, r) == 0 {
			continue
		}
		vals, _ := recvSlice[T](p, g.Phys(r))
		place(r, vals)
	}
	return out
}

func refScatterGlobal[T any](p *machine.Proc, a *Array[T], full []T) {
	if a.rank < 0 {
		return
	}
	g := a.l.g
	if a.rank == 0 {
		if len(full) != a.l.Size() {
			panic(fmt.Sprintf("dist: ScatterGlobal got %d elements for %v", len(full), a.l))
		}
		strides := rowMajorStrides(a.l.shape)
		for r := 0; r < g.Size(); r++ {
			cnt := refLocalCount(a.l, r)
			if cnt == 0 {
				continue
			}
			vals := make([]T, cnt)
			for off := 0; off < cnt; off++ {
				gi := refGlobalOfLocal(a.l, r, off)
				flat := 0
				for d, x := range gi {
					flat += x * strides[d]
				}
				vals[off] = full[flat]
			}
			if r == 0 {
				copy(a.local(), vals)
			} else {
				p.Send(g.Phys(r), &part[T]{vals: vals}, cnt*comm.ElemBytes[T]())
			}
		}
		return
	}
	if len(a.local()) > 0 {
		vals, _ := recvSlice[T](p, g.Phys(0))
		copy(a.local(), vals)
	}
}

// remapOps is one implementation of the three operations under test.
type remapOps struct {
	remap   func(p *machine.Proc, dst, src *Array[float64], perm []int)
	scatter func(p *machine.Proc, a *Array[float64], full []float64)
	gather  func(p *machine.Proc, a *Array[float64]) []float64
}

var (
	// refOps scatters real zeros where the production code scatters nil.
	refOps = remapOps{refRemapPerm[float64], func(p *machine.Proc, a *Array[float64], full []float64) {
		if full == nil && a.rank == 0 {
			full = make([]float64, a.l.Size())
		}
		refScatterGlobal(p, a, full)
	}, refGatherGlobal[float64]}
	// newOps reaches remap the way callers do where it can, so the nil
	// (identity) perm of Assign is covered too.
	newOps = remapOps{
		remap: func(p *machine.Proc, dst, src *Array[float64], perm []int) {
			switch {
			case isIdentity(perm):
				Assign(p, dst, src)
			case len(perm) == 2:
				Transpose2D(p, dst, src)
			default:
				remap(p, dst, nil, src, nil, nil, perm)
			}
		},
		scatter: ScatterGlobal[float64],
		gather:  GatherGlobal[float64],
	}
)

func isIdentity(perm []int) bool {
	for d, x := range perm {
		if d != x {
			return false
		}
	}
	return true
}

// oracleCase is one remap dst[I] = src[J], J[perm[d]] = I[d], on a machine
// of procs processors. Layouts are built inside the run (they hold groups).
type oracleCase struct {
	name     string
	procs    int
	src, dst func() *Layout
	perm     []int
}

// oracleResult is everything a run can show: each processor's destination
// part, the gathered destination at its rank 0, the trace and the stats.
// bare, which only the production code is held to, says per processor
// whether both arrays were still without storage after the copy.
type oracleResult struct {
	local  [][]float64
	global []float64
	events []machine.Event
	stats  machine.RunStats
	bare   []bool
}

// touch says which arrays a run fills before the copy. An untouched array
// holds no storage and reads as zeros, which remap moves as byte counts.
type touch uint8

const (
	touchSrc touch = 1 << iota
	touchDst
)

// fillFlat sets every element of a to sign × (its flat global index + 1).
func fillFlat(a *Array[float64], sign float64) {
	strides := rowMajorStrides(a.l.shape)
	a.FillFunc(func(idx []int) float64 {
		flat := 0
		for d, x := range idx {
			flat += x * strides[d]
		}
		return sign * float64(flat+1)
	})
}

// runOracleCase scatters a global array of distinct values (nil: zeros,
// without touching src) into src, fills dst with negative values if tc says
// so, remaps src into dst and gathers dst, all through ops.
func runOracleCase(c oracleCase, ops remapOps, eng machine.Engine, tc touch) oracleResult {
	m := testMachine(c.procs)
	m.SetEngine(eng)
	var col trace.Collector
	m.SetTracer(&col)
	res := oracleResult{local: make([][]float64, c.procs), bare: make([]bool, c.procs)}
	res.stats = m.Run(func(p *machine.Proc) {
		sl, dl := c.src(), c.dst()
		src, dst := New[float64](p, sl), New[float64](p, dl)
		var full []float64
		if src.rank == 0 && tc&touchSrc != 0 {
			full = make([]float64, sl.Size())
			for i := range full {
				full[i] = float64(i + 1)
			}
		}
		ops.scatter(p, src, full)
		if tc&touchDst != 0 {
			fillFlat(dst, -1)
		}
		ops.remap(p, dst, src, c.perm)
		res.bare[p.ID()] = src.data == nil && dst.data == nil
		res.local[p.ID()] = append([]float64(nil), dst.local()...)
		if out := ops.gather(p, dst); out != nil {
			res.global = out
		}
	})
	res.events = col.Events()
	return res
}

// matchesOracle reports every way a run of the production code differs from
// the reference run, and whether they agree.
func matchesOracle(t *testing.T, where string, got, want oracleResult) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Errorf(where+": "+format, args...)
		ok = false
	}
	if !reflect.DeepEqual(got.local, want.local) {
		fail("destination parts differ\n got %v\nwant %v", got.local, want.local)
	}
	if !reflect.DeepEqual(got.global, want.global) {
		fail("gathered destination differs\n got %v\nwant %v", got.global, want.global)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		fail("RunStats differ\n got %+v\nwant %+v", got.stats, want.stats)
	}
	if len(got.events) != len(want.events) {
		fail("%d events, reference has %d", len(got.events), len(want.events))
		return ok
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			fail("event %d differs\n got %+v\nwant %+v", i, got.events[i], want.events[i])
			break
		}
	}
	return ok
}

// checkOracleCase requires the reference and the production code to agree
// on everything under both engines, the gathered destination to be the
// permuted source, and arrays nothing touched to hold no storage.
func checkOracleCase(t *testing.T, c oracleCase, tc touch) {
	t.Helper()
	for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
		where := fmt.Sprintf("%s (touch %d) under %s", c.name, tc, eng.Name())
		got := runOracleCase(c, newOps, eng, tc)
		if !matchesOracle(t, where, got, runOracleCase(c, refOps, eng, tc)) {
			t.Logf("%s: src %v over %v, dst %v over %v, perm %v", where, c.src(), c.src().g, c.dst(), c.dst().g, c.perm)
			return
		}
		checkBare(t, where, got, tc)
	}
	// The reference agrees with itself; pin it to the specification once.
	sl, dl := c.src(), c.dst()
	got := runOracleCase(c, newOps, machine.Coop(1), tc).global
	sstr := rowMajorStrides(sl.shape)
	idx := make([]int, dl.Rank())
	for flat := range got {
		rem, sflat := flat, 0
		for d := dl.Rank() - 1; d >= 0; d-- {
			idx[d] = rem % dl.shape[d]
			rem /= dl.shape[d]
			sflat += idx[d] * sstr[c.perm[d]]
		}
		want := float64(sflat + 1)
		if tc&touchSrc == 0 {
			want = 0
		}
		if got[flat] != want {
			t.Fatalf("%s: dst%v = %v, want %v", c.name, idx, got[flat], want)
		}
	}
}

// checkBare requires a run that touched neither array to leave both without
// storage on every processor.
func checkBare(t *testing.T, where string, got oracleResult, tc touch) {
	t.Helper()
	for id, bare := range got.bare {
		if tc == 0 && !bare {
			t.Fatalf("%s: processor %d allocated storage for untouched arrays", where, id)
		}
	}
}

// genLayout draws a layout of the given shape over g: a random
// factorization of the group size as the grid, any distribution kind the
// grid extent allows per axis, and one time in three an ALIGN of the array
// at random offsets into a larger template.
func genLayout(rng *rand.Rand, g *group.Group, shape []int) *Layout {
	nd := len(shape)
	grid := make([]int, nd)
	for d := range grid {
		grid[d] = 1
	}
	for rest := g.Size(); rest > 1; {
		f := 2
		for rest%f != 0 {
			f++
		}
		grid[rng.Intn(nd)] *= f
		rest /= f
	}
	aligned := rng.Intn(3) == 0
	axes := make([]Axis, nd)
	base := make([]int, nd)
	offs := make([]int, nd)
	for d := range axes {
		kinds := []Axis{BlockAxis(), CyclicAxis(), BlockCyclicAxis(1 + rng.Intn(4))}
		if grid[d] == 1 {
			kinds = append(kinds, CollapsedAxis())
		}
		axes[d] = kinds[rng.Intn(len(kinds))]
		base[d] = shape[d]
		if aligned && axes[d].Kind != BlockCyclic {
			offs[d] = rng.Intn(4)
			base[d] += offs[d] + rng.Intn(3)
		}
	}
	l := MustLayout(g, base, axes, grid)
	if !aligned {
		return l
	}
	al, err := NewAligned(l, shape, offs)
	if err != nil {
		panic(err)
	}
	return al
}

// genGroups draws the source and destination groups on a machine of procs
// processors: identical, overlapping, disjoint, or non-contiguous (shuffled
// ids, so rank order is not physical order and the groups may overlap
// anywhere).
func genGroups(rng *rand.Rand, procs int) (src, dst *group.Group, kind string) {
	world := group.World(procs)
	sub := func(lo, hi int) *group.Group { return world.Subrange(lo, hi) }
	switch rng.Intn(4) {
	case 0:
		n := 1 + rng.Intn(procs)
		lo := rng.Intn(procs - n + 1)
		return sub(lo, lo+n), sub(lo, lo+n), "identical"
	case 1:
		hi := 2 + rng.Intn(procs-1)
		return sub(0, hi), sub(1+rng.Intn(hi-1), procs), "overlapping"
	case 2:
		cut := 1 + rng.Intn(procs-1)
		if rng.Intn(2) == 0 {
			return sub(0, cut), sub(cut, procs), "disjoint"
		}
		return sub(cut, procs), sub(0, cut), "disjoint"
	default:
		pick := func() *group.Group {
			ids := rng.Perm(procs)[:1+rng.Intn(procs)]
			return group.MustNew(ids)
		}
		return pick(), pick(), "shuffled"
	}
}

// genCase draws one case from rng. Layouts are rebuilt per run from a
// replayed seed so every run of the case sees equal layouts.
func genCase(seed int64, i int) oracleCase {
	rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
	procs := 2 + rng.Intn(9)
	nd := 1 + rng.Intn(3)
	perm := rng.Perm(nd)
	if rng.Intn(2) == 0 {
		for d := range perm {
			perm[d] = d
		}
	}
	dshape := make([]int, nd)
	sshape := make([]int, nd)
	for d := range dshape {
		dshape[d] = 1 + rng.Intn(13)
		sshape[perm[d]] = dshape[d]
	}
	sg, dg, kind := genGroups(rng, procs)
	sseed, dseed := rng.Int63(), rng.Int63()
	return oracleCase{
		name:  fmt.Sprintf("seed %d case %d (%s groups, rank %d)", seed, i, kind, nd),
		procs: procs,
		src:   func() *Layout { return genLayout(rand.New(rand.NewSource(sseed)), sg, sshape) },
		dst:   func() *Layout { return genLayout(rand.New(rand.NewSource(dseed)), dg, dshape) },
		perm:  perm,
	}
}

// TestRemapMatchesPerElementOracle: on generated layout pairs — rank 1–3,
// every distribution kind, extents the grid does not divide, ranks that own
// nothing, aligned arrays, identical / overlapping / disjoint / shuffled
// groups, identity and permuted dimensions — Scatter, remap and Gather
// through the closed-form communication sets leave the same data, send the
// same messages in the same order and finish at the same virtual times as
// the per-element reference, under both engines.
func TestRemapMatchesPerElementOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		for i := 0; i < 40; i++ {
			checkOracleCase(t, genCase(seed, i), touchSrc)
			if t.Failed() {
				return
			}
		}
	}
}

// TestRemapOracleNamedCases: the shapes the applications and the benchmark
// lean on, and any generated failure once shrunk.
func TestRemapOracleNamedCases(t *testing.T) {
	world := func(n int) *group.Group { return group.World(n) }
	cases := []oracleCase{
		{name: "row-block to col-block assign", procs: 4,
			src: func() *Layout { return RowBlock2D(world(4), 8, 8) },
			dst: func() *Layout { return ColBlock2D(world(4), 8, 8) }, perm: []int{0, 1}},
		{name: "row-block corner turn", procs: 4,
			src: func() *Layout { return RowBlock2D(world(4), 8, 6) },
			dst: func() *Layout { return RowBlock2D(world(4), 6, 8) }, perm: []int{1, 0}},
		{name: "one element per peer", procs: 8,
			src: func() *Layout { return RowBlock2D(world(8), 8, 8) },
			dst: func() *Layout { return ColBlock2D(world(8), 8, 8) }, perm: []int{1, 0}},
		{name: "pipeline stage hand-off", procs: 6,
			src: func() *Layout { return RowBlock2D(world(6).Subrange(0, 2), 9, 5) },
			dst: func() *Layout { return RowBlock2D(world(6).Subrange(2, 6), 9, 5) }, perm: []int{0, 1}},
		{name: "more processors than rows", procs: 8,
			src: func() *Layout { return RowBlock2D(world(8), 3, 4) },
			dst: func() *Layout { return ColBlock2D(world(8), 3, 4) }, perm: []int{0, 1}},
		{name: "same layout stays local", procs: 4,
			src: func() *Layout { return MustLayout(world(4), []int{10}, []Axis{BlockCyclicAxis(3)}, []int{4}) },
			dst: func() *Layout { return MustLayout(world(4), []int{10}, []Axis{BlockCyclicAxis(3)}, []int{4}) }, perm: []int{0}},
	}
	for _, c := range cases {
		checkOracleCase(t, c, touchSrc)
	}
}

// sectionCase is one CopySection of the box at srcOff in src to dstOff in
// dst, on a machine of procs processors.
type sectionCase struct {
	name           string
	procs          int
	src, dst       func() *Layout
	srcOff, dstOff []int
	box            []int
}

// runSectionCase fills src with its flat index + 1 and dst with minus its
// flat index + 1 (so elements outside the box show), each if tc says so,
// copies the section through copySection and gathers dst.
func runSectionCase(c sectionCase, eng machine.Engine, tc touch,
	copySection func(p *machine.Proc, dst *Array[float64], dstOff []int, src *Array[float64], srcOff, shape []int)) oracleResult {
	m := testMachine(c.procs)
	m.SetEngine(eng)
	var col trace.Collector
	m.SetTracer(&col)
	res := oracleResult{local: make([][]float64, c.procs), bare: make([]bool, c.procs)}
	res.stats = m.Run(func(p *machine.Proc) {
		src, dst := New[float64](p, c.src()), New[float64](p, c.dst())
		if tc&touchSrc != 0 {
			fillFlat(src, 1)
		}
		if tc&touchDst != 0 {
			fillFlat(dst, -1)
		}
		copySection(p, dst, c.dstOff, src, c.srcOff, c.box)
		res.bare[p.ID()] = src.data == nil && dst.data == nil
		res.local[p.ID()] = append([]float64(nil), dst.local()...)
		if out := GatherGlobal(p, dst); out != nil {
			res.global = out
		}
	})
	res.events = col.Events()
	return res
}

// checkSectionCase requires CopySection to agree with the per-element
// reference on everything under both engines, the gathered destination to
// hold the source box inside its own box and its initial values outside,
// and arrays nothing touched to hold no storage.
func checkSectionCase(t *testing.T, c sectionCase, tc touch) {
	t.Helper()
	for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
		where := fmt.Sprintf("%s (touch %d) under %s", c.name, tc, eng.Name())
		got := runSectionCase(c, eng, tc, CopySection[float64])
		if !matchesOracle(t, where, got, runSectionCase(c, eng, tc, refCopySection[float64])) {
			t.Logf("%s: src %v over %v at %v, dst %v over %v at %v, box %v",
				where, c.src(), c.src().g, c.srcOff, c.dst(), c.dst().g, c.dstOff, c.box)
			return
		}
		checkBare(t, where, got, tc)
	}
	sl, dl := c.src(), c.dst()
	got := runSectionCase(c, machine.Coop(1), tc, CopySection[float64]).global
	sstr := rowMajorStrides(sl.shape)
	idx := make([]int, dl.Rank())
	for flat := range got {
		rem, sflat, in := flat, 0, true
		for d := dl.Rank() - 1; d >= 0; d-- {
			idx[d] = rem % dl.shape[d]
			rem /= dl.shape[d]
			rel := idx[d] - c.dstOff[d]
			in = in && rel >= 0 && rel < c.box[d]
			sflat += (c.srcOff[d] + rel) * sstr[d]
		}
		want := 0.0
		switch {
		case in && tc&touchSrc != 0:
			want = float64(sflat + 1)
		case !in && tc&touchDst != 0:
			want = -float64(flat + 1)
		}
		if got[flat] != want {
			t.Fatalf("%s: dst%v = %v, want %v", c.name, idx, got[flat], want)
		}
	}
}

// genSectionCase draws one case from rng: a box of rank 1–3, and source and
// destination shapes drawn independently around it with the box at random
// offsets in each.
func genSectionCase(seed int64, i int) sectionCase {
	rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
	procs := 2 + rng.Intn(9)
	nd := 1 + rng.Intn(3)
	box := make([]int, nd)
	sshape, dshape := make([]int, nd), make([]int, nd)
	srcOff, dstOff := make([]int, nd), make([]int, nd)
	for d := range box {
		box[d] = 1 + rng.Intn(8)
		sshape[d], dshape[d] = box[d]+rng.Intn(6), box[d]+rng.Intn(6)
		srcOff[d], dstOff[d] = rng.Intn(sshape[d]-box[d]+1), rng.Intn(dshape[d]-box[d]+1)
	}
	sg, dg, kind := genGroups(rng, procs)
	sseed, dseed := rng.Int63(), rng.Int63()
	return sectionCase{
		name:   fmt.Sprintf("seed %d case %d (%s groups, rank %d)", seed, i, kind, nd),
		procs:  procs,
		src:    func() *Layout { return genLayout(rand.New(rand.NewSource(sseed)), sg, sshape) },
		dst:    func() *Layout { return genLayout(rand.New(rand.NewSource(dseed)), dg, dshape) },
		srcOff: srcOff, dstOff: dstOff, box: box,
	}
}

// TestCopySectionMatchesPerElementOracle: on generated boxes — rank 1–3,
// every distribution kind, aligned arrays, identical / overlapping /
// disjoint / shuffled groups, independent source and destination shapes
// with the box at independent offsets — CopySection leaves the same data,
// sends the same messages in the same order and finishes at the same
// virtual times as the per-element Remap it replaced, under both engines.
// Multiblock's interface-column exchange is pinned as a named case.
func TestCopySectionMatchesPerElementOracle(t *testing.T) {
	blockA := func() *Layout { return RowBlock2D(group.MustNew([]int{0, 1}), 6, 8) }
	blockB := func() *Layout { return RowBlock2D(group.MustNew([]int{2, 3}), 6, 10) }
	for _, c := range []sectionCase{
		{name: "multiblock: A's last interior column to B's left halo", procs: 4,
			src: blockA, dst: blockB, srcOff: []int{0, 6}, dstOff: []int{0, 0}, box: []int{6, 1}},
		{name: "multiblock: B's first interior column to A's right halo", procs: 4,
			src: blockB, dst: blockA, srcOff: []int{0, 1}, dstOff: []int{0, 7}, box: []int{6, 1}},
	} {
		checkSectionCase(t, c, touchSrc|touchDst)
	}
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		for i := 0; i < 40; i++ {
			checkSectionCase(t, genSectionCase(seed, i), touchSrc|touchDst)
			if t.Failed() {
				return
			}
		}
	}
}

// TestRemapSlabOutlivesSlowReceivers: a sender's payload slab goes back to
// the pool only once its last receiver has copied out. The senders, on one
// subgroup, run K touched copies back to back with fresh values every call;
// the receivers, on the other, compute before every receive, so a sender
// wants a slab for its next call while its earlier parts are still unread.
// Every destination must match the per-element oracle under every engine.
func TestRemapSlabOutlivesSlowReceivers(t *testing.T) {
	const procs, n, calls = 8, 16, 6
	type copyOp = func(p *machine.Proc, dst, src *Array[float64])
	ops := []struct {
		name    string
		op, ref copyOp
	}{
		{"Transpose2D", Transpose2D[float64], func(p *machine.Proc, dst, src *Array[float64]) {
			refRemapPerm(p, dst, src, transposed)
		}},
		{"Assign", Assign[float64], func(p *machine.Proc, dst, src *Array[float64]) {
			refRemapPerm(p, dst, src, identity[:2])
		}},
		{"CopySection", func(p *machine.Proc, dst, src *Array[float64]) {
			CopySection(p, dst, []int{0, n / 2}, src, []int{0, n / 4}, []int{n, n / 2})
		}, func(p *machine.Proc, dst, src *Array[float64]) {
			refCopySection(p, dst, []int{0, n / 2}, src, []int{0, n / 4}, []int{n, n / 2})
		}},
	}
	run := func(eng machine.Engine, op copyOp) [][]float64 {
		m := testMachine(procs)
		m.SetEngine(eng)
		got := make([][]float64, procs)
		m.Run(func(p *machine.Proc) {
			w := group.World(procs)
			src := New[float64](p, RowBlock2D(w.Subrange(0, procs/2), n, n))
			for k := 0; k < calls; k++ {
				dst := New[float64](p, ColBlock2D(w.Subrange(procs/2, procs), n, n))
				src.FillFunc(func(idx []int) float64 { return float64((k*n+idx[0])*n + idx[1] + 1) })
				if dst.IsMember() {
					p.Compute(1e6)
				}
				op(p, dst, src)
				got[p.ID()] = append(got[p.ID()], dst.local()...)
			}
		})
		return got
	}
	for _, name := range []string{"goroutine", "coop", "coop:4", "coop:4+shuffle@7"} {
		eng, err := machine.EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			if got, want := run(eng, o.op), run(eng, o.ref); !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %s: destinations differ from the oracle\n got %v\nwant %v", o.name, name, got, want)
			}
		}
	}
}
