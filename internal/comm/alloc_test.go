package comm

import (
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// These guards pin the copy early-outs in Send and Bcast (the comm-layer
// companions of the machine layer's nil-tracer allocation guard): a
// zero-length payload and a single-member broadcast must not copy.

// TestSendZeroLengthAllocFree: sending an empty payload skips the defensive
// copy, and a steady-state send/receive cycle on a warmed inbox allocates
// nothing at all (the nil payload boxes without a heap allocation).
func TestSendZeroLengthAllocFree(t *testing.T) {
	m := testMachine(1)
	m.Run(func(p *machine.Proc) {
		g := group.World(1)
		// Warm the inbox so its backing array reaches steady state.
		for i := 0; i < 3; i++ {
			Send(p, g, 0, []int(nil))
			p.Recv(0)
		}
		allocs := testing.AllocsPerRun(200, func() {
			Send(p, g, 0, []int{})
			p.Recv(0)
		})
		if allocs != 0 {
			t.Errorf("zero-length Send/Recv cycle allocates %v per op, want 0", allocs)
		}
	})
}

// TestSingletonCollectivesAllocFree: on a single-member group, Bcast
// returns the input without copying (pinned by pointer identity), and
// Barrier and Reduce are complete no-ops — all allocation-free.
func TestSingletonCollectivesAllocFree(t *testing.T) {
	m := testMachine(1)
	m.Run(func(p *machine.Proc) {
		g := group.World(1)
		buf := []int{1, 2, 3}
		var out []int
		allocs := testing.AllocsPerRun(200, func() {
			out = Bcast(p, g, 0, buf)
		})
		if allocs != 0 {
			t.Errorf("singleton Bcast allocates %v per op, want 0", allocs)
		}
		if len(out) != 3 || &out[0] != &buf[0] {
			t.Errorf("singleton Bcast copied: out %v (aliases input: %v)", out, len(out) == 3 && &out[0] == &buf[0])
		}
		if allocs := testing.AllocsPerRun(200, func() { Barrier(p, g) }); allocs != 0 {
			t.Errorf("singleton Barrier allocates %v per op, want 0", allocs)
		}
		add := func(a, b int) int { return a + b }
		if allocs := testing.AllocsPerRun(200, func() { Reduce(p, g, 0, 4, add) }); allocs != 0 {
			t.Errorf("singleton Reduce allocates %v per op, want 0", allocs)
		}
	})
}

// TestOwnedPayloadsSentWithoutCopy pins the sends that hand over what comm
// already owns: SendVal's value and a non-root ReduceSlice member's
// accumulator go out as they are, without Send's copy. The sender runs alone
// under the one-worker coop engine (sends never block), so the counts are
// its own: SendVal boxes its value (1, for an int past the runtime's
// allocation-free small ints; a one-element slice made it 2), a
// leaf's ReduceSlice copies its input and boxes it (2; Send's copy made it 3).
func TestOwnedPayloadsSentWithoutCopy(t *testing.T) {
	const runs = 100
	add := func(a, b int) int { return a + b }
	for _, tc := range []struct {
		name string
		want float64
		send func(p *machine.Proc, g *group.Group)
		recv func(p *machine.Proc, g *group.Group)
	}{
		{"SendVal", 1,
			func(p *machine.Proc, g *group.Group) { SendVal(p, g, 0, 1000) },
			func(p *machine.Proc, g *group.Group) { RecvVal[int](p, g, 1) }},
		{"ReduceSlice", 2,
			func(p *machine.Proc, g *group.Group) { ReduceSlice(p, g, 0, []int{1, 2, 3}, add) },
			func(p *machine.Proc, g *group.Group) { ReduceSlice(p, g, 0, []int{1, 2, 3}, add) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine(2)
			m.SetEngine(machine.Coop(1))
			g := group.World(2)
			var allocs float64
			m.Run(func(p *machine.Proc) {
				if p.ID() == 1 {
					allocs = testing.AllocsPerRun(runs, func() { tc.send(p, g) })
					return
				}
				for i := 0; i <= runs; i++ {
					tc.recv(p, g)
				}
			})
			if allocs != tc.want {
				t.Errorf("%s allocates %v per call on the sending side, want %v", tc.name, allocs, tc.want)
			}
		})
	}
}
