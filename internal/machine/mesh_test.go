package machine

import (
	"math"
	"testing"

	"fxpar/internal/sim"
)

func meshCost() sim.CostModel {
	c := testCost()
	c.PerHop = 1e-4 // 0.1 ms per hop, visible against alpha = 1 ms
	return c
}

func TestMeshHops(t *testing.T) {
	m := NewMesh(4, 2, meshCost())
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 4, 1}, // directly below
		{0, 7, 4}, // opposite corner: 3 across + 1 down
		{3, 4, 4},
	}
	for _, tc := range cases {
		if got := m.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestFlatMachineZeroHops(t *testing.T) {
	m := New(8, testCost())
	if m.Hops(0, 7) != 0 {
		t.Error("flat machine reports hops")
	}
}

func TestMeshMessageLatencyGrowsWithDistance(t *testing.T) {
	arrival := func(dst int) float64 {
		m := NewMesh(4, 2, meshCost())
		var at float64
		m.Run(func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Send(dst, 1, 8)
			case dst:
				p.Recv(0)
				at = p.Now()
			}
		})
		return at
	}
	near := arrival(1)
	far := arrival(7)
	wantDelta := 3 * 1e-4 // 3 extra hops
	if math.Abs((far-near)-wantDelta) > 1e-12 {
		t.Errorf("far-near = %g, want %g", far-near, wantDelta)
	}
}

func TestMeshInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMesh(0, 4, testCost())
}

func TestNegativePerHopRejected(t *testing.T) {
	c := testCost()
	c.PerHop = -1
	if err := c.Validate(); err == nil {
		t.Error("negative PerHop accepted")
	}
}
