package machine

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation guards for the scale-tier machine core: the panics bookkeeping
// must cost nothing on a clean run, the inbox must reuse its backing array
// at steady state, and whole-run allocations must stay proportional to P
// (flat per processor) so a P=1M machine is P=16K times a constant, not
// something worse.

// TestPanicBookkeepingAllocationFree: the healthy path through the panic
// recorder — a deferred capture that finds no panic, then the post-run
// failed() check — performs zero allocations. The seed implementation
// allocated an O(P) []any slice per Run even when nothing panicked.
func TestPanicBookkeepingAllocationFree(t *testing.T) {
	var rec panicRecorder
	sawFailure := false
	allocs := testing.AllocsPerRun(200, func() {
		func() { defer rec.capture(7) }()
		if rec.failed() != nil {
			sawFailure = true
		}
	})
	if sawFailure {
		t.Fatal("healthy recorder reported failures")
	}
	if allocs != 0 {
		t.Errorf("healthy panic bookkeeping allocates %.1f per run, want 0", allocs)
	}
}

// TestPanicRecorderCapturesAndSorts: the recorder still does its job when
// processors do panic — every value captured, returned in ascending
// processor order regardless of capture order.
func TestPanicRecorderCapturesAndSorts(t *testing.T) {
	var rec panicRecorder
	boom := func(id int) {
		defer rec.capture(id)
		panic(id * 10)
	}
	for _, id := range []int{9, 2, 5} {
		func() {
			defer func() { recover() }() // capture re-panics through; absorb here
			boom(id)
		}()
	}
	failed := rec.failed()
	if len(failed) != 3 {
		t.Fatalf("recorded %d panics, want 3: %+v", len(failed), failed)
	}
	for i, want := range []int{2, 5, 9} {
		if failed[i].Proc != want || failed[i].Value != want*10 {
			t.Fatalf("failed[%d] = %+v, want proc %d value %d", i, failed[i], want, want*10)
		}
	}
}

// TestMailboxSteadyStateAllocFree: after the queue has grown to a cycle's
// depth once, a send/receive cycle through the inbox reuses the drained
// backing array instead of allocating — under every engine family, since
// they all share the one inbox. On a 4097-processor machine one processor
// cycles through 20 peers spread over the machine, so its inbox holds 20
// sources at once, and must stay allocation-free too.
func TestMailboxSteadyStateAllocFree(t *testing.T) {
	for _, e := range []Engine{Goroutine(), Coop(1), Coop(2)} {
		t.Run(e.Name(), func(t *testing.T) {
			m := New(2, testCost())
			m.SetEngine(e)
			p0 := &Proc{m: m, id: 0}
			p1 := &Proc{m: m, id: 1}
			cycle := func() {
				for i := 0; i < 3; i++ {
					p0.Send(1, nil, 8)
				}
				for i := 0; i < 3; i++ {
					if _, ok := p1.TryRecv(0); !ok {
						t.Fatal("deposited message missing")
					}
				}
			}
			cycle() // warmup: grow the queue to the cycle's max depth
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Errorf("steady-state send/receive cycle allocates %.1f, want 0", allocs)
			}
			t.Run("P=4097", func(t *testing.T) {
				m := New(4097, testCost())
				m.SetEngine(e)
				hub := &Proc{m: m, id: 0}
				peers := make([]*Proc, 20)
				for i := range peers {
					peers[i] = &Proc{m: m, id: 1 + 204*i}
				}
				cycle := func() {
					for _, q := range peers {
						hub.Send(q.id, nil, 8)
						q.Send(hub.id, nil, 8)
					}
					for _, q := range peers {
						_, okQ := q.TryRecv(hub.id)
						_, okHub := hub.TryRecv(q.id)
						if !okQ || !okHub {
							t.Fatal("deposited message missing")
						}
					}
				}
				cycle() // warmup: grow the 21 inboxes
				if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
					t.Errorf("steady-state 20-peer cycle allocates %.1f, want 0", allocs)
				}
			})
		})
	}
}

// runMallocs runs the ring workload untraced on a P-processor machine under
// the deterministic single-worker coop engine and returns the host
// allocation count of the whole Run.
func runMallocs(n int) float64 {
	m := New(n, testCost())
	m.SetEngine(Coop(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.Run(ringBody(n))
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestRunAllocsPerProcFlat: allocations per processor must not grow with P —
// the arena proc state, one inbox per receiver sized to its messages in
// flight, and allocation-free panics bookkeeping exist to make a clean large
// run cost a flat number of allocations per processor.
func TestRunAllocsPerProcFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	small := runMallocs(4096) / 4096
	big := runMallocs(16384) / 16384
	t.Logf("allocs/proc: P=4096 %.2f, P=16384 %.2f", small, big)
	if big > small*1.25 {
		t.Errorf("allocs per proc grew from %.2f (P=4096) to %.2f (P=16384): spread %.2f > 1.25",
			small, big, big/small)
	}
}

// TestRunAllocsFlatInP: a processor costs no heap object of its own. The
// proc arena holds everything a processor needs to start, leaves are
// spawned without a closure each, and a wake channel is made only on a
// first park, so an empty run on the goroutine engine allocates the same
// handful of objects at every P.
func TestRunAllocsFlatInP(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	for _, n := range []int{64, 1024, 4096} {
		allocs := testing.AllocsPerRun(50, func() {
			m := New(n, testCost())
			m.SetEngine(Goroutine())
			m.Run(func(*Proc) {})
		})
		t.Logf("P=%d: %.0f allocations", n, allocs)
		if allocs > 32 {
			t.Errorf("New(%d) plus an empty Run performs %.0f allocations, want <= 32", n, allocs)
		}
	}
}

// TestWakeChannelOnlyWhenParked: under the goroutine engine a processor
// that never blocks ends its run with no wake channel, and one that parks
// has made its own. Processor 0 sends only once processor 1 is parked on
// it, so the park is certain.
func TestWakeChannelOnlyWhenParked(t *testing.T) {
	m := New(3, testCost())
	m.SetEngine(Goroutine())
	procs := make([]*Proc, 3)
	m.Run(func(p *Proc) {
		procs[p.ID()] = p
		switch p.ID() {
		case 0:
			in := &m.in[1]
			for parked := false; !parked; {
				runtime.Gosched()
				in.mu.Lock()
				parked = in.waitSrc != 0
				in.mu.Unlock()
			}
			p.Send(1, nil, 8)
		case 1:
			p.Recv(0)
		}
	})
	for id, want := range []bool{false, true, false} {
		if got := procs[id].HasWake(); got != want {
			t.Errorf("processor %d has a wake channel: %v, want %v", id, got, want)
		}
	}
}

// TestSecondRunReusesQueueArrays: the queue arrays a 63-way fan-in grows at
// its root go back to the process-wide pool, when outgrown and when the run
// has drained, cleared, so a second run on a fresh machine allocates none
// and no pooled array holds a payload. One P and no collector keep every
// pooled array where the next Get finds it; a pool miss is counted through
// the pool's New.
func TestSecondRunReusesQueueArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of sync.Pool puts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC() // empties the pools
	var misses int
	for k := range queuePool {
		queuePool[k].New = func() any { misses++; return nil }
	}
	defer func() {
		for k := range queuePool {
			queuePool[k].New = nil
		}
	}()
	fanIn := func() int {
		misses = 0
		m := New(64, testCost())
		m.SetEngine(Coop(1))
		m.Run(func(p *Proc) {
			if p.ID() > 0 {
				p.Send(0, &p.id, 8)
				return
			}
			for s := 1; s < 64; s++ {
				if msg := p.Recv(s); msg.Data != &p.m.procs[s].id {
					panic("wrong payload")
				}
			}
		})
		return misses
	}
	first := fanIn()
	if first == 0 {
		t.Fatal("the first run made no queue array")
	}
	misses = 0
	for k := 0; k < 7; k++ { // 1 to 64 slots
		q := getQueue(k)
		if misses != 0 {
			t.Fatalf("no pooled %d-slot array after the first run", cap(q))
		}
		for i, msg := range q[:cap(q)] {
			if msg != (Message{}) {
				t.Fatalf("slot %d of a pooled %d-slot array holds %+v", i, cap(q), msg)
			}
		}
		putQueue(q)
	}
	if second := fanIn(); second != 0 {
		t.Errorf("second run on a fresh machine made %d queue arrays, the first %d", second, first)
	}
}
