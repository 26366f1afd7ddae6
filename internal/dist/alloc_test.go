package dist

import (
	"math"
	"runtime"
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Allocation guards for the communication sets: what a remap allocates must
// depend on how many messages it sends, never on how many elements or peers
// it looks at.

const (
	allocProcs = 16
	allocCalls = 20
)

// remapMallocs returns the host allocations, per processor, of calls
// invocations of op on n-by-n arrays over allocProcs processors, and the
// messages one processor sent on average, as the difference between a run
// of 2*calls and a run of calls.
func remapMallocs(n, calls int, op func(p *machine.Proc, rows, cols, rows2 *Array[float64], full []float64)) (mallocs, msgs float64) {
	run := func(calls int) (float64, float64) {
		m := testMachine(allocProcs)
		m.SetEngine(machine.Coop(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		stats := m.Run(func(p *machine.Proc) {
			g := group.World(allocProcs)
			rows := New[float64](p, RowBlock2D(g, n, n))
			cols := New[float64](p, ColBlock2D(g, n, n))
			rows2 := New[float64](p, RowBlock2D(g, n, n))
			var full []float64
			if p.ID() == 0 {
				full = make([]float64, n*n)
			}
			for i := 0; i < calls; i++ {
				op(p, rows, cols, rows2, full)
			}
		})
		runtime.ReadMemStats(&after)
		sent := int64(0)
		for _, ps := range stats.Procs {
			sent += ps.MsgsSent
		}
		return float64(after.Mallocs-before.Mallocs) / allocProcs, float64(sent) / allocProcs
	}
	// Set-up and the mailboxes' growth to their steady depth (which follows
	// the virtual-time schedule, so it moves with n) are in both readings.
	// The runtime's own background allocations only ever add: keep the
	// smallest of three readings of each.
	base, with := math.Inf(1), math.Inf(1)
	for i := 0; i < 3; i++ {
		b, bm := run(calls)
		w, wm := run(2 * calls)
		base, with, msgs = min(base, b), min(with, w), wm-bm
	}
	return with - base, msgs
}

// TestRemapAllocsFlatInElements: twenty Transpose2D / Assign / ScatterGlobal
// / CopySection calls (the last with a box that grows with n) allocate the
// same (± 2 per processor) at n = 64 and n = 256, and
// per call no more than one allocation per message sent (the payload's
// interface header) plus the stated slack: the two sides' index and list
// arrays, the identity permutation, the one send buffer and, for
// ScatterGlobal, the root view's layout. The per-element code this replaced allocated three
// slices per element.
func TestRemapAllocsFlatInElements(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	ops := []struct {
		name  string
		slack float64 // allocations one processor may make per call beyond its messages
		op    func(p *machine.Proc, rows, cols, rows2 *Array[float64], full []float64)
	}{
		{"Transpose2D", 8, func(p *machine.Proc, rows, _, rows2 *Array[float64], _ []float64) { Transpose2D(p, rows2, rows) }},
		{"Assign", 8, func(p *machine.Proc, rows, cols, _ *Array[float64], _ []float64) { Assign(p, cols, rows) }},
		{"ScatterGlobal", 14, func(p *machine.Proc, rows, _, _ *Array[float64], full []float64) { ScatterGlobal(p, rows, full) }},
		// Assign's slack plus the three offset and box slices passed in.
		{"CopySection", 11, func(p *machine.Proc, rows, cols, _ *Array[float64], _ []float64) {
			// The middle half of rows' columns into cols' right half.
			n := rows.l.shape[0]
			CopySection(p, cols, []int{0, n / 2}, rows, []int{0, n / 4}, []int{n, n / 2})
		}},
	}
	for _, o := range ops {
		small, msgs := remapMallocs(64, allocCalls, o.op)
		big, _ := remapMallocs(256, allocCalls, o.op)
		t.Logf("%s: mallocs/proc for %d calls: n=64 %.1f, n=256 %.1f; %.1f messages/proc", o.name, allocCalls, small, big, msgs)
		if d := big - small; d > 2 || d < -2 {
			t.Errorf("%s: mallocs per processor moved from %.1f (n=64) to %.1f (n=256)", o.name, small, big)
		}
		if limit := msgs + allocCalls*o.slack; big > limit {
			t.Errorf("%s: %.1f mallocs per processor for %.1f messages and %d calls, limit %.1f", o.name, big, msgs, allocCalls, limit)
		}
	}
}
