package comm

import (
	"testing"

	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

func testMachine(n int) *machine.Machine {
	return machine.New(n, sim.CostModel{
		FlopRate:     1e6,
		Alpha:        1e-4,
		Beta:         1e-7,
		SendOverhead: 1e-5,
		BarrierAlpha: 1e-5,
		IORate:       1e6,
	})
}

// groupSizes exercises power-of-two and awkward sizes.
var groupSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBarrierAdvancesToMax(t *testing.T) {
	for _, n := range groupSizes {
		m := testMachine(n)
		clocks := make([]float64, n)
		m.Run(func(p *machine.Proc) {
			g := group.World(n)
			// Skewed compute: proc i works i milliseconds.
			p.Compute(float64(p.ID()) * 1000)
			entry := float64(n-1) * 1e-3 // slowest processor's clock at entry
			Barrier(p, g)
			if n > 1 && p.Now() < entry {
				t.Errorf("n=%d proc %d: clock %g < max entry clock %g after barrier", n, p.ID(), p.Now(), entry)
			}
			clocks[p.ID()] = p.Now()
		})
	}
}

func TestBarrierSubsetOnly(t *testing.T) {
	// A barrier over a subgroup must not touch non-members: the outsider
	// finishes with a zero clock and no messages.
	m := testMachine(4)
	stats := m.Run(func(p *machine.Proc) {
		sub := group.MustNew([]int{0, 1, 2})
		if p.ID() == 3 {
			return
		}
		p.Compute(1000)
		Barrier(p, sub)
	})
	if got := stats.Procs[3].Finish; got != 0 {
		t.Errorf("outsider clock = %g, want 0", got)
	}
	if stats.Procs[3].MsgsSent != 0 {
		t.Error("outsider sent messages")
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range groupSizes {
		for root := 0; root < n; root++ {
			m := testMachine(n)
			m.Run(func(p *machine.Proc) {
				g := group.World(n)
				var data []int
				if r, _ := g.RankOf(p.ID()); r == root {
					data = []int{10, 20, 30, root}
				}
				got := Bcast(p, g, root, data)
				if len(got) != 4 || got[3] != root || got[0] != 10 {
					t.Errorf("n=%d root=%d proc %d: got %v", n, root, p.ID(), got)
				}
			})
		}
	}
}

func TestBcastResultIsPrivateCopy(t *testing.T) {
	m := testMachine(2)
	m.Run(func(p *machine.Proc) {
		g := group.World(2)
		src := []int{1, 2, 3}
		got := Bcast(p, g, 0, src)
		got[0] = 99 // must not affect the root's original
		if src[0] != 1 {
			t.Error("Bcast aliased the caller's slice")
		}
	})
}

func TestReduceSum(t *testing.T) {
	for _, n := range groupSizes {
		for root := 0; root < min(n, 3); root++ {
			m := testMachine(n)
			m.Run(func(p *machine.Proc) {
				g := group.World(n)
				r, _ := g.RankOf(p.ID())
				got := Reduce(p, g, root, r+1, func(a, b int) int { return a + b })
				want := n * (n + 1) / 2
				if r == root && got != want {
					t.Errorf("n=%d root=%d: sum = %d, want %d", n, root, got, want)
				}
				if r != root && got != 0 {
					t.Errorf("non-root got %d, want zero value", got)
				}
			})
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	for _, n := range groupSizes {
		m := testMachine(n)
		m.Run(func(p *machine.Proc) {
			g := group.World(n)
			got := AllReduce(p, g, p.ID(), func(a, b int) int {
				if a > b {
					return a
				}
				return b
			})
			if got != n-1 {
				t.Errorf("n=%d proc %d: max = %d, want %d", n, p.ID(), got, n-1)
			}
		})
	}
}

func TestReduceSlice(t *testing.T) {
	n := 5
	m := testMachine(n)
	m.Run(func(p *machine.Proc) {
		g := group.World(n)
		local := []float64{float64(p.ID()), 1}
		got := ReduceSlice(p, g, 2, local, func(a, b float64) float64 { return a + b })
		if p.ID() == 2 {
			if got[0] != 10 || got[1] != 5 {
				t.Errorf("reduced = %v", got)
			}
		} else if got != nil {
			t.Errorf("non-root got %v", got)
		}
	})
}

func TestGatherAllSizes(t *testing.T) {
	for _, n := range groupSizes {
		m := testMachine(n)
		m.Run(func(p *machine.Proc) {
			g := group.World(n)
			r, _ := g.RankOf(p.ID())
			parts := Gather(p, g, 0, []int{r, r * 10})
			if r == 0 {
				for i, part := range parts {
					if len(part) != 2 || part[0] != i || part[1] != i*10 {
						t.Errorf("n=%d gather part %d = %v", n, i, part)
					}
				}
			} else if parts != nil {
				t.Error("non-root gather result not nil")
			}
		})
	}
}

func TestGatherFlat(t *testing.T) {
	n := 4
	m := testMachine(n)
	m.Run(func(p *machine.Proc) {
		g := group.World(n)
		flat := GatherFlat(p, g, 0, []int{p.ID()})
		if p.ID() == 0 {
			for i, v := range flat {
				if v != i {
					t.Errorf("flat = %v", flat)
				}
			}
		}
	})
}

func TestAllGatherVariableSizes(t *testing.T) {
	n := 4
	m := testMachine(n)
	m.Run(func(p *machine.Proc) {
		g := group.World(n)
		local := make([]int, p.ID()+1) // rank r contributes r+1 elements
		for i := range local {
			local[i] = p.ID()
		}
		parts := AllGather(p, g, local)
		for r, part := range parts {
			if len(part) != r+1 {
				t.Errorf("proc %d: part %d has %d elements", p.ID(), r, len(part))
			}
			for _, v := range part {
				if v != r {
					t.Errorf("proc %d: part %d = %v", p.ID(), r, part)
				}
			}
		}
	})
}

func TestSendRecvTyped(t *testing.T) {
	m := testMachine(3)
	m.Run(func(p *machine.Proc) {
		g := group.MustNew([]int{2, 0, 1}) // virtual order differs from physical
		r, _ := g.RankOf(p.ID())
		switch r {
		case 0:
			Send(p, g, 2, []string{"a", "b"})
		case 2:
			got := Recv[string](p, g, 0)
			if len(got) != 2 || got[1] != "b" {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestSendCopies(t *testing.T) {
	m := testMachine(2)
	m.Run(func(p *machine.Proc) {
		g := group.World(2)
		if p.ID() == 0 {
			buf := []int{1, 2, 3}
			Send(p, g, 1, buf)
			buf[0] = 99 // mutation after send must not corrupt the message
		} else {
			got := Recv[int](p, g, 0)
			if got[0] != 1 {
				t.Errorf("message corrupted by sender mutation: %v", got)
			}
		}
	})
}

func TestSendValRecvVal(t *testing.T) {
	m := testMachine(2)
	m.Run(func(p *machine.Proc) {
		g := group.World(2)
		if p.ID() == 0 {
			SendVal(p, g, 1, 3.14)
		} else {
			if got := RecvVal[float64](p, g, 0); got != 3.14 {
				t.Errorf("got %g", got)
			}
		}
	})
}

func TestNonMemberCollectivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(4)
	m.Run(func(p *machine.Proc) {
		sub := group.MustNew([]int{0, 1})
		Barrier(p, sub) // procs 2,3 are not members -> panic
	})
}

func TestElemBytes(t *testing.T) {
	if got := ElemBytes[float64](); got != 8 {
		t.Errorf("float64 size = %d", got)
	}
	if got := ElemBytes[complex128](); got != 16 {
		t.Errorf("complex128 size = %d", got)
	}
	if got := ElemBytes[int32](); got != 4 {
		t.Errorf("int32 size = %d", got)
	}
}
