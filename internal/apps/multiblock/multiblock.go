// Package multiblock implements the multiblock-application pattern the
// paper's introduction motivates and Figure 1 sketches: "multiblock codes
// containing irregularly structured regular meshes are more naturally
// programmed as interacting tasks with each task representing a regular
// mesh". A chain of rectangular blocks of different widths is relaxed with
// Jacobi iterations; each block lives on its own processor subgroup
// (parallel sections), computes its step inside an ON block, and the shared
// boundary columns are exchanged by parent-scope array-section assignments
// between subgroup arrays — exactly the proca/procb/transfer structure of
// Figure 1.
package multiblock

import (
	"fmt"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Config describes the block chain. Every block has H rows; block i has
// Widths[i] columns of which columns 0 and Widths[i]-1 are halo/boundary
// columns. Adjacent blocks share an interface: block i's last interior
// column feeds block i+1's left halo and vice versa. The chain's outer
// boundary columns are fixed at Left and Right; the top and bottom rows are
// fixed at zero.
type Config struct {
	H      int
	Widths []int
	Iters  int
	Left   float64
	Right  float64
}

// DefaultConfig is a three-block chain of unequal widths.
func DefaultConfig() Config {
	return Config{H: 64, Widths: []int{40, 24, 56}, Iters: 30, Left: 100, Right: 0}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.H < 3 {
		return fmt.Errorf("multiblock: H = %d", c.H)
	}
	if len(c.Widths) == 0 {
		return fmt.Errorf("multiblock: no blocks")
	}
	for i, w := range c.Widths {
		if w < 3 {
			return fmt.Errorf("multiblock: block %d width %d < 3", i, w)
		}
	}
	if c.Iters < 0 {
		return fmt.Errorf("multiblock: Iters = %d", c.Iters)
	}
	return nil
}

// JacobiFlops is the modeled per-cell cost of one relaxation update.
const JacobiFlops = 5

// Result of a run.
type Result struct {
	Makespan float64
	// Blocks holds each block's final values in row-major order (gathered;
	// only filled when gather is requested).
	Blocks [][]float64
}

// Run relaxes the chain with one subgroup per block; procsPerBlock must sum
// to at most the machine size (leftover processors idle). The returned
// blocks are gathered for verification.
func Run(mach *machine.Machine, cfg Config, procsPerBlock []int) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(procsPerBlock) != len(cfg.Widths) {
		panic(fmt.Sprintf("multiblock: %d processor counts for %d blocks", len(procsPerBlock), len(cfg.Widths)))
	}
	total := 0
	for _, q := range procsPerBlock {
		total += q
	}
	if total > mach.N() {
		panic(fmt.Sprintf("multiblock: %d processors requested, machine has %d", total, mach.N()))
	}
	res := Result{Blocks: make([][]float64, len(cfg.Widths))}
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	runStats := fx.Run(mach, func(p *fx.Proc) {
		specs := make([]group.Spec, 0, len(cfg.Widths)+1)
		for i, q := range procsPerBlock {
			specs = append(specs, group.Sub(blockName(i), q))
		}
		if idle := mach.N() - total; idle > 0 {
			specs = append(specs, group.Sub("idle", idle))
		}
		part := p.Partition(specs...)

		// SUBGROUP(block i) :: mesh_i
		blocks := make([]*dist.Array[float64], len(cfg.Widths))
		next := make([]*dist.Array[float64], len(cfg.Widths))
		for i := range cfg.Widths {
			g := part.Group(blockName(i))
			blocks[i] = dist.New[float64](p.Proc, dist.RowBlock2D(g, cfg.H, cfg.Widths[i]))
			next[i] = dist.New[float64](p.Proc, dist.RowBlock2D(g, cfg.H, cfg.Widths[i]))
			initBlock(blocks[i], cfg, i)
			initBlock(next[i], cfg, i)
		}

		p.TaskRegion(part, func(r *fx.Region) {
			for it := 0; it < cfg.Iters; it++ {
				// Parent scope: exchange interface columns (Figure 1's
				// transfer). Only the owners of each pair participate.
				for i := 0; i+1 < len(blocks); i++ {
					wa := cfg.Widths[i]
					// A's last interior column -> B's left halo.
					dist.CopySection(p.Proc, blocks[i+1], []int{0, 0},
						blocks[i], []int{0, wa - 2}, []int{cfg.H, 1})
					// B's first interior column -> A's right halo.
					dist.CopySection(p.Proc, blocks[i], []int{0, wa - 1},
						blocks[i+1], []int{0, 1}, []int{cfg.H, 1})
				}
				// Subgroup scope: one Jacobi step per block.
				for i := range blocks {
					i := i
					r.On(blockName(i), func() {
						jacobiStep(p, blocks[i], next[i])
					})
				}
				// Buffer swap in parent scope (a pure local pointer swap)
				// so every processor's descriptors stay consistent.
				for i := range blocks {
					blocks[i], next[i] = next[i], blocks[i]
				}
			}
		})

		for i := range blocks {
			if full := dist.GatherGlobal(p.Proc, blocks[i]); full != nil {
				<-mu
				res.Blocks[i] = full
				mu <- struct{}{}
			}
		}
	})
	res.Makespan = runStats.MakespanTime()
	return res
}

func blockName(i int) string { return fmt.Sprintf("block%d", i) }

// initBlock sets the initial temperatures: zero everywhere except the
// chain's outer boundary columns.
func initBlock(a *dist.Array[float64], cfg Config, i int) {
	if !a.IsMember() {
		return
	}
	w := cfg.Widths[i]
	a.FillFunc(func(idx []int) float64 {
		if i == 0 && idx[1] == 0 {
			return cfg.Left
		}
		if i == len(cfg.Widths)-1 && idx[1] == w-1 {
			return cfg.Right
		}
		return 0
	})
}

// jacobiStep computes one relaxation step of a block on its subgroup,
// exchanging ghost rows with subgroup neighbours. Halo columns (0 and w-1)
// and the top/bottom rows are copied through unchanged.
func jacobiStep(p *fx.Proc, cur, next *dist.Array[float64]) {
	if !cur.IsMember() || len(cur.Local()) == 0 {
		return
	}
	above, below := dist.HaloRows(p.Proc, cur, 1)
	shape := cur.Layout().Shape()
	h, w := shape[0], shape[1]
	rows := cur.Layout().LocalCount(cur.Rank()) / w
	local := cur.Local()
	out := next.Local()
	rowAt := func(r int) []float64 {
		switch {
		case r >= 0 && r < rows:
			return local[r*w : (r+1)*w]
		case r < 0:
			return above
		default:
			return below
		}
	}
	for r := 0; r < rows; r++ {
		gi := cur.GlobalRowOfLocal(r)
		dst := out[r*w : (r+1)*w]
		src := local[r*w : (r+1)*w]
		if gi == 0 || gi == h-1 {
			copy(dst, src)
			continue
		}
		up, down := rowAt(r-1), rowAt(r+1)
		dst[0] = src[0]
		dst[w-1] = src[w-1]
		for j := 1; j < w-1; j++ {
			dst[j] = 0.25 * (up[j] + down[j] + src[j-1] + src[j+1])
		}
	}
	p.Compute(float64(rows*w) * JacobiFlops)
}

// Reference runs the same relaxation sequentially on the equivalent single
// global mesh and returns it split back into the chain's blocks (including
// their halo columns) for exact comparison with Run.
func Reference(cfg Config) [][]float64 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Global mesh: end boundary columns plus each block's interior columns.
	totalW := 2
	for _, w := range cfg.Widths {
		totalW += w - 2
	}
	cur := make([]float64, cfg.H*totalW)
	nxt := make([]float64, cfg.H*totalW)
	for i := 0; i < cfg.H; i++ {
		cur[i*totalW] = cfg.Left
		cur[i*totalW+totalW-1] = cfg.Right
	}
	copy(nxt, cur)
	for it := 0; it < cfg.Iters; it++ {
		for i := 1; i < cfg.H-1; i++ {
			for j := 1; j < totalW-1; j++ {
				nxt[i*totalW+j] = 0.25 * (cur[(i-1)*totalW+j] + cur[(i+1)*totalW+j] +
					cur[i*totalW+j-1] + cur[i*totalW+j+1])
			}
		}
		cur, nxt = nxt, cur
	}
	// Split into blocks with halo columns.
	out := make([][]float64, len(cfg.Widths))
	start := 1 // first interior global column of block 0
	for b, w := range cfg.Widths {
		blk := make([]float64, cfg.H*w)
		for i := 0; i < cfg.H; i++ {
			for j := 0; j < w; j++ {
				gj := start + j - 1 // block col 0 = global col start-1
				blk[i*w+j] = cur[i*totalW+gj]
			}
		}
		out[b] = blk
		start += w - 2
	}
	return out
}
