package fx

import (
	"math/rand"
	"testing"

	"fxpar/internal/dist"
	"fxpar/internal/group"
)

// soak generates a random nested task-parallel program from a seed: random
// compute, subgroup barriers, recursive partitions, and parent-scope
// assignments between subgroup arrays (with content verification). All
// members of a subgroup derive the same decision stream from the same seed,
// keeping the program SPMD-consistent. Returns per-processor finish times.
func soak(t *testing.T, procs int, seed int64) []float64 {
	t.Helper()
	m := testMachine(procs)
	stats := Run(m, func(p *Proc) {
		soakLevel(t, p, seed, 0)
	})
	out := make([]float64, procs)
	for i, ps := range stats.Procs {
		out[i] = ps.Finish
	}
	return out
}

func soakLevel(t *testing.T, p *Proc, seed int64, depth int) {
	rng := rand.New(rand.NewSource(seed))
	np := p.NumberOfProcessors()
	steps := rng.Intn(4) + 1
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(4); {
		case op == 0:
			p.Compute(float64(rng.Intn(5000)))
		case op == 1:
			p.Barrier()
		case op == 2 && np >= 2 && depth < 3:
			p1 := rng.Intn(np-1) + 1
			part := p.Partition(group.Sub("lo", p1), group.Sub("hi", np-p1))
			loSeed := seed*31 + int64(s)*7 + 1
			hiSeed := seed*37 + int64(s)*11 + 2
			// Subgroup arrays and a parent-scope transfer.
			n := rng.Intn(20) + 1
			src := dist.New[int64](p.Proc, dist.MustLayout(part.Group("lo"),
				[]int{n}, []dist.Axis{dist.BlockAxis()}, []int{p1}))
			dst := dist.New[int64](p.Proc, dist.MustLayout(part.Group("hi"),
				[]int{n}, []dist.Axis{dist.BlockAxis()}, []int{np - p1}))
			if src.IsMember() {
				src.FillFunc(func(idx []int) int64 { return seed ^ int64(idx[0]*2654435761) })
			}
			p.TaskRegion(part, func(r *Region) {
				r.On("lo", func() { soakLevel(t, p, loSeed, depth+1) })
				dist.Assign(p.Proc, dst, src)
				r.On("hi", func() { soakLevel(t, p, hiSeed, depth+1) })
			})
			if dst.IsMember() {
				bad := false
				for i := 0; i < n; i++ {
					if dst.Layout().OwnerRank(i) == dst.Rank() && dst.At(i) != seed^int64(i*2654435761) {
						bad = true
					}
				}
				if bad {
					t.Errorf("seed %d depth %d: transfer corrupted data", seed, depth)
				}
			}
		default:
			// Replicated scalar work: no communication.
			x := 0
			for i := 0; i < rng.Intn(50); i++ {
				x += i
			}
			_ = x
		}
	}
}

func TestSoakRandomNestedPrograms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, procs := range []int{2, 5, 8} {
			soak(t, procs, seed) // must terminate without panic or deadlock
		}
	}
}

func TestSoakDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := soak(t, 6, seed)
		b := soak(t, 6, seed)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("seed %d: proc %d finish %g vs %g", seed, i, a[i], b[i])
			}
		}
	}
}
