// Package qsort implements the dynamically nested task-parallel quicksort of
// Figure 4: the distributed key array is partitioned around a pivot, the
// current processors are divided into two subgroups proportionally to the
// partition sizes, each subgroup sorts its side recursively (further
// dividing its own processors), and the sorted sides are merged back.
//
// Deviation from Figure 4, documented in DESIGN.md: the partition is
// three-way (less / equal / greater) so that duplicate keys cannot produce
// degenerate recursions; the equal band needs no recursive sort.
package qsort

import (
	"cmp"
	"math"
	"sort"

	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// CompareFlops is the modeled cost of one comparison-and-move.
const CompareFlops = 4

// Sort sorts the 1D block-distributed array a — which must be mapped onto
// the caller's current processor group — in place.
func Sort[T cmp.Ordered](p *fx.Proc, a *dist.Array[T]) {
	n := a.Layout().Shape()[0]
	sortRec(p, a, n)
}

func sortRec[T cmp.Ordered](p *fx.Proc, a *dist.Array[T], n int) {
	if n <= 1 {
		return
	}
	g := p.Group()
	if g.Size() == 1 {
		// qsort_sequential of Figure 4.
		local := a.Local()
		sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
		p.Compute(float64(n) * math.Log2(float64(n)+1) * CompareFlops)
		return
	}

	pivot := pickPivot(p, a, n)

	// count_less_than_pivot (and the equal band, for robustness).
	type cnt struct{ Less, Eq int }
	local := a.Local()
	mine := cnt{}
	for _, v := range local {
		switch {
		case v < pivot:
			mine.Less++
		case v == pivot:
			mine.Eq++
		}
	}
	p.Compute(float64(len(local)) * 2)
	totals := comm.AllReduce(p.Proc, g, mine, func(x, y cnt) cnt {
		return cnt{x.Less + y.Less, x.Eq + y.Eq}
	})
	nLess, nEq := totals.Less, totals.Eq
	nGreater := n - nLess - nEq

	switch {
	case nLess == 0 && nGreater == 0:
		return // all keys equal: already sorted
	case nLess == 0 || nGreater == 0:
		// One-sided recursion on the whole group: pack the non-equal band,
		// sort it, and merge around the equal band.
		m := nLess + nGreater
		side := dist.New[T](p.Proc, dist.MustLayout(g, []int{m}, []dist.Axis{dist.BlockAxis()}, []int{g.Size()}))
		if nLess > 0 {
			dist.PackInto(p.Proc, side, a, 0, func(v T) bool { return v < pivot })
		} else {
			dist.PackInto(p.Proc, side, a, 0, func(v T) bool { return v > pivot })
		}
		p.Compute(float64(len(local)) * 2)
		sortRec(p, side, m)
		if nLess > 0 {
			dist.CopyRange1D(p.Proc, a, 0, side)
			dist.FillRange1D(a, nLess, nLess+nEq, pivot)
		} else {
			dist.FillRange1D(a, 0, nEq, pivot)
			dist.CopyRange1D(p.Proc, a, nEq, side)
		}
		return
	}

	// compute_subgroup_sizes: processors proportional to the two sides.
	p1 := computeSubgroupSizes(g.Size(), nLess, nGreater)
	sortHelper(p, a, n, nLess, nEq, nGreater, p1, g.Size()-p1, pivot)
}

// pickPivot returns the median of the first, middle and last keys,
// broadcast to every group member.
func pickPivot[T cmp.Ordered](p *fx.Proc, a *dist.Array[T], n int) T {
	idxs := []int{0, n / 2, n - 1}
	vals := make([]T, 3)
	for k, i := range idxs {
		vals[k] = elemBcast(p, a, i)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[1]
}

// elemBcast fetches a[i] on every member of a's group.
func elemBcast[T cmp.Ordered](p *fx.Proc, a *dist.Array[T], i int) T {
	g := a.Layout().Group()
	owner := a.Layout().OwnerRank(i)
	var v T
	if a.Rank() == owner {
		v = a.At(i)
	}
	out := comm.Bcast(p.Proc, g, owner, []T{v})
	return out[0]
}

// computeSubgroupSizes of Figure 4: split np processors proportionally to
// the side sizes, at least one each.
func computeSubgroupSizes(np, nLess, nGreater int) int {
	p1 := int(math.Round(float64(np) * float64(nLess) / float64(nLess+nGreater)))
	if p1 < 1 {
		p1 = 1
	}
	if p1 > np-1 {
		p1 = np - 1
	}
	return p1
}

// sortHelper is qsort_helper of Figure 4: declare the partition, map the
// side arrays onto the subgroups, pack, recurse on each subgroup inside its
// ON block, and merge.
func sortHelper[T cmp.Ordered](p *fx.Proc, a *dist.Array[T],
	n, nLess, nEq, nGreater, p1, p2 int, pivot T) {
	part := p.Partition(group.Sub("lessG", p1), group.Sub("greaterEqG", p2))
	gLess, gGr := part.Group("lessG"), part.Group("greaterEqG")
	aLess := dist.New[T](p.Proc, dist.MustLayout(gLess, []int{nLess}, []dist.Axis{dist.BlockAxis()}, []int{p1}))
	aGr := dist.New[T](p.Proc, dist.MustLayout(gGr, []int{nGreater}, []dist.Axis{dist.BlockAxis()}, []int{p2}))
	p.TaskRegion(part, func(r *fx.Region) {
		// pick_less_than_pivot / pick_greater_equal_to_pivot.
		dist.PackInto(p.Proc, aLess, a, 0, func(v T) bool { return v < pivot })
		dist.PackInto(p.Proc, aGr, a, 0, func(v T) bool { return v > pivot })
		p.Compute(float64(len(a.Local())) * 4)
		r.On("lessG", func() {
			sortRec(p, aLess, nLess)
		})
		r.On("greaterEqG", func() {
			sortRec(p, aGr, nGreater)
		})
		// merge_result: sorted(less) ++ equal band ++ sorted(greater).
		dist.CopyRange1D(p.Proc, a, 0, aLess)
		dist.FillRange1D(a, nLess, nLess+nEq, pivot)
		dist.CopyRange1D(p.Proc, a, nLess+nEq, aGr)
	})
}

// Result summarizes a benchmark sort.
type Result struct {
	Makespan float64
	Sorted   bool
	N        int
}

// keyAt generates key i of the synthetic input.
func keyAt(seed int64, i int) int64 {
	h := uint64(i)*0x9e3779b97f4a7c15 + uint64(seed)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return int64(h % 1_000_003)
}

// Run sorts n synthetic keys on the machine and verifies the result.
func Run(mach *machine.Machine, n int, seed int64) Result {
	res := Result{N: n}
	runStats := fx.Run(mach, func(p *fx.Proc) {
		g := p.Group()
		a := dist.New[int64](p.Proc, dist.MustLayout(g, []int{n}, []dist.Axis{dist.BlockAxis()}, []int{g.Size()}))
		a.FillFunc(func(idx []int) int64 { return keyAt(seed, idx[0]) })
		Sort(p, a)
		full := dist.GatherGlobal(p.Proc, a)
		if full != nil {
			res.Sorted = sortedAndSameMultiset(full, n, seed)
		}
	})
	res.Makespan = runStats.MakespanTime()
	return res
}

func sortedAndSameMultiset(full []int64, n int, seed int64) bool {
	if len(full) != n {
		return false
	}
	for i := 1; i < n; i++ {
		if full[i-1] > full[i] {
			return false
		}
	}
	want := make([]int64, n)
	for i := range want {
		want[i] = keyAt(seed, i)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if full[i] != want[i] {
			return false
		}
	}
	return true
}
