// Package stereo implements the CMU multibaseline stereo benchmark of
// Section 5.1 (Okutomi & Kanade): each data set is a triple of camera
// images; processing computes difference images (sum of squared differences
// between corresponding pixels of the match images for each candidate
// disparity), error images (sum over a surrounding pixel window), and the
// depth image (per-pixel minimum over disparities).
//
// The three steps form a natural 3-stage data parallel pipeline; the error
// step needs halo rows from neighbouring processors (a window sum across the
// block-distributed image rows), which exercises subgroup-internal
// communication inside an ON block.
package stereo

import (
	"fmt"

	"fxpar/internal/apps/streams"
	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
)

// Config describes the stereo workload. Images are H-by-W pixels; the
// paper's data set is 256x240 (W=256, H=240) with three cameras.
type Config struct {
	W, H        int
	Disparities int // candidate disparities searched
	Window      int // half-width of the error window (full window 2w+1)
	Sets        int

	// charge makes every stage charge its flops from its local shape and
	// skip the arithmetic: the same messages — nil payloads of the same
	// byte counts — and virtual times, no values. Only the cost-table cells
	// (see MeasuredModel) and Simulate set it.
	charge bool
}

// DefaultConfig is the paper's 256x240 data set.
func DefaultConfig() Config {
	return Config{W: 256, H: 240, Disparities: 16, Window: 2, Sets: 8}
}

// DataParallel and ChoiceToMapping forward to package mapping for the
// benchmark module; code in this module names package mapping directly.
func DataParallel(p int) mapping.Mapping { return mapping.DataParallel(p) }

// ChoiceToMapping returns the mapping c selected.
func ChoiceToMapping(c mapping.Choice) mapping.Mapping { return c.Mapping }

// ErrorCap is the widest error stage — and so the widest data-parallel
// module — the program runs: the largest q ≤ H whose ceil(H/q)-row blocks
// are at least min(Window, H) rows deep, because the halo exchange reaches
// one neighbour only.
func (cfg Config) ErrorCap() int {
	q := cfg.H
	for q > 1 && (cfg.H+q-1)/q < min(cfg.Window, cfg.H) {
		q--
	}
	return q
}

// Result of a run. DepthSum maps data set index to the sum of the depth
// image's disparity indices — a checksum verified across mappings.
type Result struct {
	Stream   stats.Result
	DepthSum map[int]int64
	Makespan float64
	// runStats is the raw per-processor machine statistics of the run.
	runStats machine.RunStats
}

// Cost constants (flops per pixel) for the three phases.
const (
	DiffFlops  = 3 // subtract, square, accumulate — per pixel per disparity per match image
	ErrorFlops = 4 // separable window sum, two passes of add+store
	DepthFlops = 1 // compare per disparity
)

// scene returns the "true" disparity at pixel (i, j) of set s: a blocky
// pattern so window sums have clear minima.
func scene(s, i, j, disparities int) int {
	return ((i/24)*7 + (j/32)*3 + s) % disparities
}

// refPixel generates the reference image. Every pixel is k/4096 — the error
// stage's exactness rests on it.
func refPixel(s, i, j int) float64 {
	h := uint32(s*2654435761) ^ uint32(i*40503+j*9973)
	h ^= h >> 13
	h *= 1103515245
	h ^= h >> 16
	return float64(h%4096) / 4096
}

// Run executes the stream under the mapping.
func Run(mach *machine.Machine, cfg Config, mp mapping.Mapping) Result {
	meter := stats.NewStream()
	sums, st := program(cfg).Run("stereo", mach, mp, cfg.Sets, meter)
	return Result{Stream: meter.Summarize(), DepthSum: sums, Makespan: st.MakespanTime(), runStats: st}
}

// Simulate is Run charging every stage from shape (see Config.charge): the
// same Stream, Makespan, statistics and events, zero depth sums, no data.
func Simulate(mach *machine.Machine, cfg Config, mp mapping.Mapping) Result {
	cfg.charge = true
	return Run(mach, cfg, mp)
}

// Caps returns the stages' processor caps (see streams.Program.Caps).
func (cfg Config) Caps() []int { return program(cfg).Caps() }

// done reports a data set's depth checksum (see streams.Stage.New).
type done = func(p *fx.Proc, set int, sum int64)

// stageNames name the stages in the cost tables, in order; Spec reads
// them without building the program.
var stageNames = []string{"diff", "error", "depth"}

// program is the stereo stage table: every stage works on the difference
// volume and hands it on by assignment.
func program(cfg Config) streams.Program[float64, int64] {
	layout := func(g *group.Group) *dist.Layout { return volume(g, cfg) }
	return streams.Program[float64, int64]{
		{Name: stageNames[0], Group: "Gdiff", Cap: cfg.H, Layout: layout,
			New: func(p *fx.Proc, vol *dist.Array[float64], _ done) func(int) {
				in := newFrames(p, vol.Layout().Group(), cfg)
				return func(set int) { diffStage(p, vol, in, cfg, set) }
			}},
		{Name: stageNames[1], Group: "Gerr", Cap: cfg.ErrorCap(), Layout: layout,
			New: func(p *fx.Proc, vol *dist.Array[float64], _ done) func(int) {
				return func(int) { errorStage(p, vol, cfg) }
			}},
		{Name: stageNames[2], Group: "Gdep", Cap: cfg.H, Layout: layout,
			New: func(p *fx.Proc, vol *dist.Array[float64], done done) func(int) {
				depth := dist.New[int32](p.Proc, dist.RowBlock2D(vol.Layout().Group(), cfg.H, cfg.W))
				return func(set int) { depthStage(p, vol, depth, cfg, set, done) }
			}},
	}
}

// ident is the content identity the stereo cost tables and cell skeletons
// are filed under.
func ident(cfg Config) mapping.Ident {
	return mapping.Ident{App: "stereo",
		Params: fmt.Sprintf("W=%d,H=%d,D=%d,Win=%d", cfg.W, cfg.H, cfg.Disparities, cfg.Window)}
}

// Spec returns the content-keyed table spec MeasuredModel memoizes its cost
// tables under; exported for the serving layer's request dedupe.
func Spec(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) mapping.TableSpec {
	return ident(cfg).Spec(cost, maxP, stageNames, opt.Replay)
}

// MeasuredModel builds the stereo cost model from isolated stage
// simulations, memoized by content key and replay-first under opt.Replay;
// see mapping.Cells.Measure. A cell reads nothing but virtual time, so its
// stages charge instead of computing (see Config.charge).
func MeasuredModel(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	cfg.charge = true
	pr := program(cfg)
	return pr.Cells(ident(cfg)).Measure(cost, pr.Model(cost, maxP), opt)
}

// volume distributes the (Disparities, H, W) difference volume over the
// image rows.
func volume(g *group.Group, cfg Config) *dist.Layout {
	return dist.MustLayout(g,
		[]int{cfg.Disparities, cfg.H, cfg.W},
		[]dist.Axis{dist.CollapsedAxis(), dist.BlockAxis(), dist.CollapsedAxis()},
		[]int{1, g.Size(), 1})
}

// frames is one diff stage's camera staging, allocated once per module and
// overwritten by every data set: the three row-block images and, on the
// stage's rank 0, the full frames it reads before scattering them.
type frames struct {
	ref, m1, m2    *dist.Array[float64]
	fRef, fM1, fM2 []float64
}

func newFrames(p *fx.Proc, g *group.Group, cfg Config) *frames {
	f := &frames{
		ref: dist.New[float64](p.Proc, dist.RowBlock2D(g, cfg.H, cfg.W)),
		m1:  dist.New[float64](p.Proc, dist.RowBlock2D(g, cfg.H, cfg.W)),
		m2:  dist.New[float64](p.Proc, dist.RowBlock2D(g, cfg.H, cfg.W)),
	}
	f.fRef, f.fM1, f.fM2 = streams.Frame(f.ref, cfg.charge), streams.Frame(f.m1, cfg.charge), streams.Frame(f.m2, cfg.charge)
	return f
}

// diffStage reads the camera images (serial I/O on the stage's rank 0,
// scattered row-block into in) and computes the SSD difference volume.
// Under cfg.charge it scatters frames it did not fill and computes nothing.
func diffStage(p *fx.Proc, vol *dist.Array[float64], in *frames, cfg Config, set int) {
	if !vol.IsMember() {
		return
	}
	w := cfg.W
	// Input: three images; rank 0 reads them, then scatters rows. Match
	// image m is the reference shifted by the scene disparity (per epipolar
	// geometry, match m at disparity d sees pixel (i, j-d*m)); pixels shifted
	// out of range replicate the edge. Both are copied out of the reference.
	if vol.Rank() == 0 {
		p.IO(3 * cfg.H * w * 8)
		if !cfg.charge {
			for i := 0; i < cfg.H; i++ {
				ref := in.fRef[i*w : (i+1)*w]
				m1, m2 := in.fM1[i*w:(i+1)*w], in.fM2[i*w:(i+1)*w]
				for j := range ref {
					ref[j] = refPixel(set, i, j)
				}
				for j := range ref {
					d := scene(set, i, j, cfg.Disparities)
					m1[j] = ref[max(j-d, 0)]
					m2[j] = ref[max(j-2*d, 0)]
				}
			}
		}
	}
	dist.ScatterGlobal(p.Proc, in.ref, in.fRef)
	dist.ScatterGlobal(p.Proc, in.m1, in.fM1)
	dist.ScatterGlobal(p.Proc, in.m2, in.fM2)

	// vol[d][i][j] = sum over match images m of (ref[i][j-d*m] - match_m[i][j])^2,
	// following the match geometry above (edge-replicated).
	localRows := in.ref.Layout().LocalCount(in.ref.Rank()) / w
	flops := float64(cfg.Disparities*localRows*w) * DiffFlops * 2
	if cfg.charge {
		p.Compute(flops)
		return
	}
	volLocal := vol.Local()
	for d := 0; d < cfg.Disparities; d++ {
		for li := 0; li < localRows; li++ {
			refRow := in.ref.Local()[li*w : (li+1)*w]
			m1Row := in.m1.Local()[li*w : (li+1)*w]
			m2Row := in.m2.Local()[li*w : (li+1)*w]
			out := volLocal[(d*localRows+li)*w : (d*localRows+li+1)*w]
			for j := 0; j < w; j++ {
				jd1 := j - d
				if jd1 < 0 {
					jd1 = 0
				}
				jd2 := j - 2*d
				if jd2 < 0 {
					jd2 = 0
				}
				e1 := refRow[jd1] - m1Row[j]
				e2 := refRow[jd2] - m2Row[j]
				out[j] = e1*e1 + e2*e2
			}
		}
	}
	p.Compute(flops)
}

// errorStage replaces each difference value with the sum over a
// (2w+1)x(2w+1) window, using separable running sums; the vertical pass
// exchanges halo rows with neighbouring processors of the stage subgroup.
//
// The sums are exact, so their order cannot change a bit: every pixel is
// k/4096, each difference value (two squared pixel differences) is a
// multiple of 2^-24 below 2, and every partial or running window sum — and
// every difference of two such values — is a multiple of 2^-24 below
// 2*(2w+1)^2. float64 holds every multiple of 2^-24 below 2^29 exactly,
// which covers any Window under 8000.
func errorStage(p *fx.Proc, vol *dist.Array[float64], cfg Config) {
	if !vol.IsMember() {
		return
	}
	g := vol.Layout().Group()
	w := cfg.W
	win := cfg.Window
	localRows := vol.Layout().LocalCount(vol.Rank()) / (cfg.Disparities * w)
	rank := vol.Rank()
	// BLOCK distribution can leave trailing ranks empty (ceil division);
	// the non-empty ranks form a contiguous prefix that carries the halo
	// protocol. Empty ranks skip the stage entirely.
	size := 0
	for r := 0; r < g.Size(); r++ {
		if vol.Layout().LocalCount(r) > 0 {
			size++
		}
	}
	if localRows == 0 {
		return
	}
	if rank < size-1 && localRows < win {
		panic(fmt.Sprintf("stereo: interior rank %d holds %d rows < window %d; halo exchange would span several processors", rank, localRows, win))
	}

	// Under cfg.charge local stays nil: neither pass runs, and the halo
	// exchange sends nil payloads of the halos' byte counts.
	var local, tmp []float64
	if !cfg.charge {
		local, tmp = vol.Local(), make([]float64, w)
		rowSums(local, tmp, win)
	}

	// Halo exchange: send my top win rows down to rank-1 and bottom win rows
	// up to rank+1 (all disparities), then receive the neighbours' halos.
	rowBytes := w * 8
	packRows := func(fromTop bool) []float64 {
		if local == nil {
			return nil
		}
		buf := make([]float64, 0, cfg.Disparities*win*w)
		for d := 0; d < cfg.Disparities; d++ {
			for k := 0; k < win; k++ {
				li := k
				if !fromTop {
					li = localRows - win + k
				}
				if li < 0 || li >= localRows {
					li = clamp(li, 0, localRows-1)
				}
				buf = append(buf, local[(d*localRows+li)*w:(d*localRows+li+1)*w]...)
			}
		}
		return buf
	}
	var above, below []float64
	if win > 0 && size > 1 {
		if rank > 0 {
			p.Send(g.Phys(rank-1), packRows(true), cfg.Disparities*win*rowBytes)
		}
		if rank < size-1 {
			p.Send(g.Phys(rank+1), packRows(false), cfg.Disparities*win*rowBytes)
		}
		if rank > 0 {
			above = p.Recv(g.Phys(rank - 1)).Data.([]float64)
		}
		if rank < size-1 {
			below = p.Recv(g.Phys(rank + 1)).Data.([]float64)
		}
	}
	if local != nil {
		columnSums(local, tmp, above, below, cfg)
	}
	p.Compute(float64(cfg.Disparities*localRows*w) * ErrorFlops)
}

// rowSums is the horizontal pass: it slides the window along every
// len(tmp)-wide row of local, in place, through the temp row tmp.
func rowSums(local, tmp []float64, win int) {
	w := len(tmp)
	for r := 0; r < len(local)/w; r++ {
		row := local[r*w : (r+1)*w]
		s := 0.0
		for k := -win; k <= win; k++ {
			s += row[clamp(k, 0, w-1)]
		}
		tmp[0] = s
		for j := 1; j < w; j++ {
			s += row[min(j+win, w-1)] - row[max(j-win-1, 0)]
			tmp[j] = s
		}
		copy(row, tmp)
	}
}

// columnSums is the vertical pass: it slides the window down each column of
// every disparity plane of local, in place, keeping the running sums in sum.
// above and below hold the neighbours' halo rows (nil at the global edges).
// Row li is overwritten as soon as its sum is known, so a ring of the last
// win+1 original rows supplies the rows the sum later drops.
func columnSums(local, sum, above, below []float64, cfg Config) {
	w, win := cfg.W, cfg.Window
	localRows := len(local) / (cfg.Disparities * w)
	haloRow := func(buf []float64, d, k int) []float64 {
		off := (d*win + k) * w
		return buf[off : off+w]
	}
	ring := make([]float64, (win+1)*w)
	for d := 0; d < cfg.Disparities; d++ {
		plane := local[d*localRows*w : (d+1)*localRows*w]
		// orig returns original row t of plane's column, extended by the
		// neighbours' halos or, at the global edges, by replication; rows up
		// to done have been overwritten and come from the ring.
		orig := func(t, done int) []float64 {
			switch {
			case t < 0 && above != nil:
				return haloRow(above, d, win+t)
			case t >= localRows && below != nil:
				return haloRow(below, d, t-localRows)
			}
			t = clamp(t, 0, localRows-1)
			if t <= done {
				t %= win + 1
				return ring[t*w : (t+1)*w]
			}
			return plane[t*w : (t+1)*w]
		}
		clear(sum)
		for k := -win; k <= win; k++ {
			for j, v := range orig(k, -1)[:w] {
				sum[j] += v
			}
		}
		for li := 0; li < localRows; li++ {
			row := plane[li*w : (li+1)*w]
			slot := li % (win + 1)
			copy(ring[slot*w:(slot+1)*w], row)
			copy(row, sum)
			if li+1 < localRows {
				add, drop := orig(li+win+1, li)[:w], orig(li-win, li)[:w]
				for j := range sum {
					sum[j] += add[j] - drop[j]
				}
			}
		}
	}
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// depthStage computes the per-pixel argmin over disparities, checksums the
// depth image (0 under cfg.charge, which skips the argmin), and completes
// the data set on the stage's rank 0.
func depthStage(p *fx.Proc, vol *dist.Array[float64], depth *dist.Array[int32], cfg Config, set int, done done) {
	if !vol.IsMember() {
		return
	}
	w := cfg.W
	localRows := vol.Layout().LocalCount(vol.Rank()) / (cfg.Disparities * w)
	var sum int64
	if !cfg.charge {
		local, dlocal := vol.Local(), depth.Local()
		for li := 0; li < localRows; li++ {
			drow := dlocal[li*w : (li+1)*w]
			for j := 0; j < w; j++ {
				best := local[li*w+j]
				bestD := 0
				for d := 1; d < cfg.Disparities; d++ {
					v := local[(d*localRows+li)*w+j]
					if v < best {
						best = v
						bestD = d
					}
				}
				drow[j] = int32(bestD)
				sum += int64(bestD)
			}
		}
	}
	p.Compute(float64(cfg.Disparities*localRows*w) * DepthFlops)
	g := vol.Layout().Group()
	total := comm.Reduce(p.Proc, g, 0, sum, func(x, y int64) int64 { return x + y })
	if vol.Rank() == 0 {
		p.IO(cfg.H * cfg.W * 4)
		if done != nil {
			done(p, set, total)
		}
	}
}
