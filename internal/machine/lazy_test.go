package machine

import (
	"testing"
	"unsafe"
)

// TestTryRecvEmitsTraceEvents is the regression test for the TryRecv
// bookkeeping bug: the non-blocking path used to skip the EvWait/EvRecv
// events and seq bumps that Recv emits, leaving traced timelines with
// missing receive markers and breaking send→recv edge matching.
func TestTryRecvEmitsTraceEvents(t *testing.T) {
	m := New(2, testCost())
	tr := &sliceTracer{}
	m.SetTracer(tr)
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 7, 64)
		case 1:
			// The message has a positive virtual arrival time while the
			// receiver's clock is still 0, so a wait interval must be traced
			// even on the non-blocking path.
			for {
				if _, ok := p.TryRecv(0); ok {
					return
				}
			}
		}
	})
	var wait, recv *Event
	for i := range tr.evs {
		e := &tr.evs[i]
		if e.Proc != 1 {
			continue
		}
		switch e.Kind {
		case EvWait:
			wait = e
		case EvRecv:
			recv = e
		}
	}
	if wait == nil {
		t.Fatal("TryRecv emitted no EvWait event for a not-yet-arrived message")
	}
	if recv == nil {
		t.Fatal("TryRecv emitted no EvRecv marker")
	}
	if wait.Peer != 0 || wait.Bytes != 64 || wait.Start != 0 || wait.End <= 0 {
		t.Errorf("wait event = %+v, want peer 0, bytes 64, span [0, arrival]", wait)
	}
	if recv.Peer != 0 || recv.Bytes != 64 || recv.Start != recv.End || recv.End != wait.End {
		t.Errorf("recv marker = %+v, want zero-length marker at wait end %g", recv, wait.End)
	}
	if recv.Seq != wait.Seq+1 {
		t.Errorf("seq numbers wait=%d recv=%d, want consecutive", wait.Seq, recv.Seq)
	}
}

// TestTryRecvMatchesRecvAccounting pins that both receive paths produce the
// same clock advance, idle time, and received-message count.
func TestTryRecvMatchesRecvAccounting(t *testing.T) {
	type obs struct {
		clock, idle float64
		recvd       int64
	}
	run := func(try bool) obs {
		m := New(2, testCost())
		var o obs
		m.Run(func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Compute(5000)
				p.Send(1, 1, 8)
			case 1:
				if try {
					for {
						if _, ok := p.TryRecv(0); ok {
							break
						}
					}
				} else {
					p.Recv(0)
				}
				o = obs{clock: p.Now(), idle: p.idle, recvd: 1}
			}
		})
		return o
	}
	blocking, nonblocking := run(false), run(true)
	if blocking != nonblocking {
		t.Errorf("TryRecv accounting %+v differs from Recv accounting %+v", nonblocking, blocking)
	}
}

// TestLargeMachineConstructionIsLazy guards machine construction: nothing
// per pair and no message queue is made up front. The inbox and termination
// slices plus the Machine header stay within a handful of O(n) allocations
// at every size, and an empty inbox costs each processor at most 48 bytes.
func TestLargeMachineConstructionIsLazy(t *testing.T) {
	for _, n := range []int{8, 1024, 2049, 65536} {
		allocs := testing.AllocsPerRun(3, func() {
			_ = New(n, testCost())
		})
		if allocs > 5 {
			t.Errorf("New(%d) performs %.0f allocations, want <= 5 (queues must be lazy)", n, allocs)
		}
	}
	if size := unsafe.Sizeof(inbox{}); size > 48 {
		t.Errorf("per-processor inbox state is %d B, want <= 48", size)
	}
}

// TestIdleInboxAllocatesNothing: in a run in which the even processors
// pass a ring message and the odd ones only compute, every odd processor's
// inbox has no queue, and every even one a single slot, read by each
// processor after its last receive (Run returns the arrays to the pool).
func TestIdleInboxAllocatesNothing(t *testing.T) {
	for _, n := range []int{8, 2050} {
		m := New(n, testCost())
		caps := make([]int, n)
		m.Run(func(p *Proc) {
			if p.ID()%2 == 1 {
				p.Compute(10)
			} else {
				p.Send((p.ID()+2)%n, p.ID(), 8)
				p.Recv((p.ID() + n - 2) % n)
			}
			in := &m.in[p.ID()]
			in.mu.Lock()
			caps[p.ID()] = cap(in.q)
			in.mu.Unlock()
		})
		for dst, got := range caps {
			if want := 1 - dst%2; got != want {
				t.Fatalf("P=%d: processor %d's inbox has capacity %d, want %d", n, dst, got, want)
			}
		}
	}
}

// BenchmarkMachineNew1024 tracks machine-construction cost at the large
// machine size the sweep benchmark targets.
func BenchmarkMachineNew1024(b *testing.B) {
	cost := testCost()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New(1024, cost)
	}
}
