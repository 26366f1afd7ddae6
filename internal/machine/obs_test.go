package machine

import (
	"sync"
	"testing"
)

// sliceTracer records events for assertions.
type sliceTracer struct {
	mu  sync.Mutex
	evs []Event
}

func (t *sliceTracer) Record(e Event) {
	t.mu.Lock()
	t.evs = append(t.evs, e)
	t.mu.Unlock()
}

func TestSpanEventsNestAndCarryDepth(t *testing.T) {
	m := New(1, testCost())
	tr := &sliceTracer{}
	m.SetTracer(tr)
	m.Run(func(p *Proc) {
		p.BeginSpan("outer")
		p.Compute(1000)
		p.BeginSpan("inner")
		p.Compute(2000)
		p.EndSpan()
		p.EndSpan()
	})
	wantKinds := []EventKind{EvSpanBegin, EvCompute, EvSpanBegin, EvCompute, EvSpanEnd, EvSpanEnd}
	wantLabels := []string{"outer", "", "inner", "", "inner", "outer"}
	wantDepths := []int{0, 0, 1, 0, 1, 0}
	if len(tr.evs) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %+v", len(tr.evs), len(wantKinds), tr.evs)
	}
	for i, e := range tr.evs {
		if e.Kind != wantKinds[i] || e.Label != wantLabels[i] || e.Depth != wantDepths[i] {
			t.Errorf("event %d = kind %v label %q depth %d, want %v %q %d",
				i, e.Kind, e.Label, e.Depth, wantKinds[i], wantLabels[i], wantDepths[i])
		}
		if e.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	// The inner span's markers bracket exactly the second compute.
	if tr.evs[2].Start != 0.001 || tr.evs[4].Start != 0.003 {
		t.Errorf("inner span = [%g, %g], want [0.001, 0.003]", tr.evs[2].Start, tr.evs[4].Start)
	}
}

func TestSendRecvEventsCarryPeerAndBytes(t *testing.T) {
	m := New(2, testCost())
	tr := &sliceTracer{}
	m.SetTracer(tr)
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 64)
		} else {
			p.Recv(0)
		}
	})
	var send, wait, recv *Event
	for i := range tr.evs {
		e := &tr.evs[i]
		switch e.Kind {
		case EvSend:
			send = e
		case EvWait:
			wait = e
		case EvRecv:
			recv = e
		}
	}
	if send == nil || send.Peer != 1 || send.Bytes != 64 {
		t.Errorf("send event = %+v, want peer 1 bytes 64", send)
	}
	if wait == nil || wait.Peer != 0 || wait.Bytes != 64 {
		t.Errorf("wait event = %+v, want peer 0 bytes 64", wait)
	}
	if recv == nil || recv.Peer != 0 || recv.Bytes != 64 || recv.Start != recv.End {
		t.Errorf("recv marker = %+v, want zero-length with peer 0 bytes 64", recv)
	}
	if recv.End != wait.End {
		t.Errorf("recv marker at %g, want at wait end %g", recv.End, wait.End)
	}
}

func TestUnclosedSpanPanics(t *testing.T) {
	m := New(1, testCost())
	m.SetTracer(&sliceTracer{})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for unclosed span")
		}
	}()
	m.Run(func(p *Proc) { p.BeginSpan("leak") })
}

func TestEndSpanWithoutBeginPanics(t *testing.T) {
	m := New(1, testCost())
	m.SetTracer(&sliceTracer{})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for unmatched EndSpan")
		}
	}()
	m.Run(func(p *Proc) { p.EndSpan() })
}

func TestSpansFreeWithoutTracer(t *testing.T) {
	m := New(1, testCost())
	stats := m.Run(func(p *Proc) {
		p.BeginSpan("ignored")
		p.Compute(1000)
		p.EndSpan()
		if len(p.spans) != 0 {
			t.Error("span stack grew without a tracer")
		}
	})
	if stats.Procs[0].Finish != 0.001 {
		t.Errorf("finish = %g", stats.Procs[0].Finish)
	}
}

// TestNilTracerHotPathNoAllocs is the benchmark guard of the observability
// layer: with no tracer installed, the compute/send/recv hot path of the
// simulator — including the span calls the fx runtime and collectives now
// make — must not allocate at all. Proc is only goroutine-affine by
// convention, so driving both ends from the test goroutine is safe here.
func TestNilTracerHotPathNoAllocs(t *testing.T) {
	m := New(2, testCost())
	p0 := &Proc{m: m, id: 0}
	p1 := &Proc{m: m, id: 1}
	var payload any = []int{1, 2, 3, 4}
	// Warm the mailbox so its backing array reaches steady-state capacity.
	for i := 0; i < 4; i++ {
		p0.Send(1, payload, 32)
		p1.Recv(0)
	}
	allocs := testing.AllocsPerRun(500, func() {
		p0.Compute(100)
		p0.BeginSpan("untraced")
		p0.Send(1, payload, 32)
		p1.Recv(0)
		p0.EndSpan()
		p1.IO(64)
	})
	if allocs != 0 {
		t.Errorf("nil-tracer hot path allocates %.1f times per op, want 0", allocs)
	}
}

// TestMailboxReusesCapacity pins the head-index inbox behaviour: a long
// alternating send/receive stream must not grow the queue.
func TestMailboxReusesCapacity(t *testing.T) {
	for _, n := range []int{8, 2049} {
		m := New(n, testCost())
		p0 := &Proc{m: m, id: 0}
		p1 := &Proc{m: m, id: 1}
		for i := 0; i < 1000; i++ {
			p0.Send(1, i, 8)
			got := p1.Recv(0)
			if got.Data.(int) != i {
				t.Fatalf("P=%d: message %d: got %v", n, i, got.Data)
			}
		}
		if c := cap(m.in[1].q); c > 4 {
			t.Errorf("P=%d: inbox capacity grew to %d under alternating traffic", n, c)
		}
	}
}
