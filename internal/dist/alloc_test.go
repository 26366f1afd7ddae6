package dist

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Allocation guards for data movement: what a call allocates must be a
// constant per call, never one object per message, element or peer.

const allocCalls = 20

// allocFixture is what one processor's op works on. The n-by-n arrays are
// row-BLOCK (rows, rows2, bare) and column-BLOCK (cols); vec and half are n·n
// elements BLOCK over the whole group and over its first half. full is rank
// 0's global buffer. Nothing touches bare.
type allocFixture struct {
	rows, cols, rows2, bare *Array[float64]
	vec, half               *Array[float64]
	full                    []float64
}

// remapMallocs returns the host allocations, per processor, of calls
// invocations of op on n-by-n arrays over procs processors, and the
// messages one processor sent per calls calls. touched fills every array
// and full first, so payloads carry data; otherwise they travel as byte
// counts.
//
// A barrier after every call (no allocation; its messages are counted) holds
// each inbox at its steady depth: a sender left to run ahead grows its
// receivers' queues, a cost of the machine that follows the schedule. Under
// a one-slot coop engine one processor runs at a time, so processor 0 reads
// the counter while every other one waits in the next barrier: after calls
// warm-up calls and after calls more. Set-up and the machine's goroutines
// stay out of the reading; the mark's barrier is in it.
func remapMallocs(procs, n, calls int, touched bool, op func(p *machine.Proc, f *allocFixture)) (mallocs, msgs float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collector cycles in the reading
	m := testMachine(procs)
	m.SetEngine(machine.Coop(1))
	var at [2]uint64
	stats := m.Run(func(p *machine.Proc) {
		g := group.World(procs)
		f := &allocFixture{
			rows:  New[float64](p, RowBlock2D(g, n, n)),
			cols:  New[float64](p, ColBlock2D(g, n, n)),
			rows2: New[float64](p, RowBlock2D(g, n, n)),
			bare:  New[float64](p, RowBlock2D(g, n, n)),
			vec:   New[float64](p, MustLayout(g, []int{n * n}, []Axis{BlockAxis()}, []int{procs})),
			half:  New[float64](p, MustLayout(g.Subrange(0, procs/2), []int{n * n}, []Axis{BlockAxis()}, []int{procs / 2})),
		}
		if touched {
			for _, a := range []*Array[float64]{f.rows, f.cols, f.rows2, f.vec, f.half} {
				a.FillFunc(func(idx []int) float64 { return float64(idx[0] + 1) })
			}
			if p.ID() == 0 {
				f.full = make([]float64, n*n)
				for i := range f.full {
					f.full[i] = float64(i)
				}
			}
		}
		mark := func(k int) {
			if p.ID() == 0 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				at[k] = ms.Mallocs
			}
			comm.Barrier(p, g)
		}
		for k := range at { // warm-up, then the window
			for i := 0; i < calls; i++ {
				op(p, f)
				comm.Barrier(p, g)
			}
			mark(k)
		}
	})
	sent := int64(0)
	for _, ps := range stats.Procs {
		sent += ps.MsgsSent
	}
	return float64(at[1]-at[0]) / float64(procs), float64(sent) / float64(2*procs)
}

// TestRemapAllocsFlatInElements: twenty calls of every data movement
// allocate, per processor, the same (± spread) at P = 16 and 64 and at
// n = 64 and 256, with untouched and with touched data, and no more than
// slack per call, however many messages they send. A remap call's payloads
// are parts of a slab its last receiver returns to a pool, and its index and
// list arrays are borrowed from another, so at steady state it allocates
// nothing; zeros from an untouched source are written through the walk. The
// per-element code this replaced allocated three slices per element, the
// earlier wire format one interface box per message, and the one before the
// pool a send buffer and a header slab per call.
func TestRemapAllocsFlatInElements(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	ops := []struct {
		name          string
		slack, spread float64 // allocations one processor may make per call; their range over P and n
		op            func(p *machine.Proc, f *allocFixture)
	}{
		{"Transpose2D", 0, 2, func(p *machine.Proc, f *allocFixture) { Transpose2D(p, f.rows2, f.rows) }},
		{"Assign", 0, 2, func(p *machine.Proc, f *allocFixture) { Assign(p, f.cols, f.rows) }},
		// Untouched into touched: no slab, no zeros allocated.
		{"AssignZeros", 0, 2, func(p *machine.Proc, f *allocFixture) { Assign(p, f.cols, f.bare) }},
		{"ScatterGlobal", 0, 2, func(p *machine.Proc, f *allocFixture) { ScatterGlobal(p, f.rows, f.full) }},
		// The three offset and box slices passed in.
		{"CopySection", 3, 2, func(p *machine.Proc, f *allocFixture) {
			// The middle half of rows' columns into cols' right half.
			n := f.rows.l.shape[0]
			CopySection(p, f.cols, []int{0, n / 2}, f.rows, []int{0, n / 4}, []int{n, n / 2})
		}},
		// The counts' gather and broadcast; the kept elements are a pooled
		// slab and the prefix sums are borrowed. comm boxes one []int per
		// message, and the gather root's share of those shrinks as 1/P.
		{"PackInto", 5, 4, func(p *machine.Proc, f *allocFixture) {
			PackInto(p, f.half, f.vec, 0, func(v float64) bool { return int(v)%2 == 0 })
		}},
		// One buffer and one part array for both rows, kept by the receivers.
		{"HaloRows", 2, 2, func(p *machine.Proc, f *allocFixture) { HaloRows(p, f.rows, 1) }},
	}
	for _, o := range ops {
		for _, touched := range []bool{false, true} {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, procs := range []int{16, 64} {
				for _, n := range []int{64, 256} {
					got, msgs := remapMallocs(procs, n, allocCalls, touched, o.op)
					t.Logf("%s touched=%v P=%d n=%d: %.1f mallocs/proc for %d calls, %.1f messages/proc", o.name, touched, procs, n, got, allocCalls, msgs)
					lo, hi = min(lo, got), max(hi, got)
					// Plus one per processor for what the window costs
					// once, however long: the mark, the machine's own.
					if limit := allocCalls*o.slack + 1; got > limit {
						t.Errorf("%s touched=%v P=%d n=%d: %.1f mallocs per processor for %d calls, limit %.1f", o.name, touched, procs, n, got, allocCalls, limit)
					}
				}
			}
			if hi-lo > o.spread {
				t.Errorf("%s touched=%v: mallocs per processor range over %.1f–%.1f across P and n", o.name, touched, lo, hi)
			}
		}
	}
}
