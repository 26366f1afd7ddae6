package machine

import (
	"math"
	"strings"
	"testing"

	"fxpar/internal/sim"
)

// testCost is a simple model with round numbers for exact assertions.
func testCost() sim.CostModel {
	return sim.CostModel{
		FlopRate:     1e6,  // 1 us per flop
		Alpha:        1e-3, // 1 ms
		Beta:         1e-6, // 1 us per byte
		SendOverhead: 1e-4, // 100 us
		MemByte:      0,
		BarrierAlpha: 0,
		IORate:       1e6,
	}
}

func TestSendRecvTimestamp(t *testing.T) {
	m := New(2, testCost())
	var recvClock float64
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Compute(1000) // 1 ms
			p.Send(1, []float64{1, 2, 3}, 24)
		case 1:
			msg := p.Recv(0)
			if msg.Src != 0 {
				t.Errorf("Src = %d, want 0", msg.Src)
			}
			if got := msg.Data.([]float64); len(got) != 3 || got[2] != 3 {
				t.Errorf("bad payload %v", got)
			}
			recvClock = p.Now()
		}
	})
	// Sender: 1 ms compute + 0.1 ms overhead = 1.1 ms at injection.
	// Wire: 1 ms alpha + 24 us = 1.024 ms. Arrival: 2.124 ms.
	want := 1e-3 + 1e-4 + 1e-3 + 24e-6
	if math.Abs(recvClock-want) > 1e-12 {
		t.Errorf("receiver clock = %g, want %g", recvClock, want)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	m := New(2, testCost())
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 42, 4)
		case 1:
			p.Compute(1e6) // 1 second, far past arrival
			before := p.Now()
			p.Recv(0)
			if p.Now() != before {
				t.Errorf("clock moved from %g to %g on late recv", before, p.Now())
			}
			if p.idle != 0 {
				t.Errorf("idle time %g for a message that was already there", p.idle)
			}
		}
	})
}

func TestIdleAccounting(t *testing.T) {
	m := New(2, testCost())
	var idle float64
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Compute(5000) // 5 ms
			p.Send(1, nil, 0)
		case 1:
			p.Recv(0)
			idle = p.idle
		}
	})
	want := 5e-3 + 1e-4 + 1e-3 // sender compute + overhead + alpha
	if math.Abs(idle-want) > 1e-12 {
		t.Errorf("idle = %g, want %g", idle, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		m := New(8, testCost())
		stats := m.Run(func(p *Proc) {
			// Ring exchange with data-dependent compute.
			n := p.Machine().N()
			for round := 0; round < 20; round++ {
				p.Compute(float64(100 * (p.ID() + 1)))
				p.Send((p.ID()+1)%n, p.ID(), 8)
				p.Recv((p.ID() - 1 + n) % n)
			}
		})
		out := make([]float64, len(stats.Procs))
		for i, ps := range stats.Procs {
			out[i] = ps.Finish
		}
		return out
	}
	a := run()
	for trial := 0; trial < 5; trial++ {
		b := run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: proc %d finish %g != %g (virtual time not deterministic)", trial, i, b[i], a[i])
			}
		}
	}
}

func TestFIFOOrderPerPair(t *testing.T) {
	m := New(2, testCost())
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < 100; i++ {
				p.Send(1, i, 8)
			}
		case 1:
			for i := 0; i < 100; i++ {
				msg := p.Recv(0)
				if got := msg.Data.(int); got != i {
					t.Fatalf("message %d arrived out of order: got %d", i, got)
				}
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	m := New(1, testCost())
	m.Run(func(p *Proc) {
		p.Send(0, "hello", 5)
		msg := p.Recv(0)
		if msg.Data.(string) != "hello" {
			t.Errorf("self-send payload %v", msg.Data)
		}
	})
}

func TestTryRecv(t *testing.T) {
	m := New(2, testCost())
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 7, 8)
			p.Send(1, "done", 4)
		case 1:
			// Wait for the sentinel via blocking recv order: first message
			// must be 7, second "done".
			if v := p.Recv(0).Data.(int); v != 7 {
				t.Errorf("got %d", v)
			}
			if _, ok := p.TryRecv(0); !ok {
				// The second message may not have been deposited yet in real
				// time; fall back to blocking.
				msg := p.Recv(0)
				if msg.Data.(string) != "done" {
					t.Errorf("got %v", msg.Data)
				}
				return
			}
		}
	})
}

func TestUnconsumedMessagePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unconsumed message")
		}
		if !strings.Contains(r.(string), "unconsumed") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	m := New(2, testCost())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 8)
		}
	})
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from processor goroutine")
		}
	}()
	m := New(4, testCost())
	m.Run(func(p *Proc) {
		if p.ID() == 2 {
			panic("boom")
		}
	})
}

func TestStatsAccumulate(t *testing.T) {
	m := New(2, testCost())
	stats := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(1000)
			p.Send(1, []byte{1, 2, 3, 4}, 4)
			p.IO(1000)
		} else {
			p.Recv(0)
		}
	})
	p0 := stats.Procs[0]
	if p0.MsgsSent != 1 || p0.BytesSent != 4 {
		t.Errorf("sent stats = %d msgs / %d bytes", p0.MsgsSent, p0.BytesSent)
	}
	wantBusy := 1e-3 + 1e-4 + 1e-3 // compute + send overhead + IO of 1000 bytes
	if math.Abs(p0.Busy-wantBusy) > 1e-12 {
		t.Errorf("busy = %g, want %g", p0.Busy, wantBusy)
	}
	if got := stats.MakespanTime(); got < p0.Finish {
		t.Errorf("makespan %g < proc0 finish %g", got, p0.Finish)
	}
	totalBusy := 0.0
	for _, p := range stats.Procs {
		totalBusy += p.Busy
	}
	if totalBusy <= 0 {
		t.Error("total busy time should be positive")
	}
}

func TestElapseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := New(1, testCost())
	m.Run(func(p *Proc) { p.Elapse(-1) })
}

func TestInvalidDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := New(2, testCost())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(5, nil, 0)
		}
	})
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	New(0, testCost())
}
