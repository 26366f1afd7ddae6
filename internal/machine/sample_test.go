package machine

import (
	"errors"
	"reflect"
	"testing"
)

// rejectSampler drops every event while counting the consultations. It is
// deliberately allocation-free: the machine promises the emit path stays
// zero-alloc when a sampler rejects, and this stub must not hide a violation.
type rejectSampler struct{ calls int64 }

func (s *rejectSampler) SampleEvent(int, int64, EventKind) bool {
	s.calls++
	return false
}

// modSampler keeps every k-th event — a stateless function of (proc, seq),
// so the kept set must be engine-independent.
type modSampler struct{ k int64 }

func (s modSampler) SampleEvent(_ int, seq int64, _ EventKind) bool {
	return seq%s.k == 0
}

// TestSamplingRejectHotPathNoAllocs mirrors TestNilTracerHotPathNoAllocs
// with a tracer installed and a sampler dropping everything: the emit path
// — sequence advance, sampler consultation, early-out — must not allocate.
func TestSamplingRejectHotPathNoAllocs(t *testing.T) {
	m := New(2, testCost())
	m.SetTracer(&sliceTracer{})
	s := &rejectSampler{}
	m.SetSampler(s)
	p0 := &Proc{m: m, id: 0}
	p1 := &Proc{m: m, id: 1}
	var payload any = []int{1, 2, 3, 4}
	// Warm the mailbox and span stack to steady-state capacity.
	for i := 0; i < 4; i++ {
		p0.BeginSpan("warm")
		p0.Send(1, payload, 32)
		p1.Recv(0)
		p0.EndSpan()
	}
	allocs := testing.AllocsPerRun(500, func() {
		p0.Compute(100)
		p0.BeginSpan("sampled-out")
		p0.Send(1, payload, 32)
		p1.Recv(0)
		p0.EndSpan()
		p1.IO(64)
	})
	if allocs != 0 {
		t.Errorf("rejecting-sampler hot path allocates %.1f times per op, want 0", allocs)
	}
	if s.calls == 0 {
		t.Fatalf("sampler was never consulted")
	}
	if got := len(m.tracer.(*sliceTracer).evs); got != 0 {
		t.Errorf("rejecting sampler let %d events through", got)
	}
}

// TestSamplerSeqAdvancesForDroppedEvents pins the identity invariant: the
// per-processor sequence advances for every event, kept or dropped, so a
// recorded event's Seq is the same number it would carry unsampled.
func TestSamplerSeqAdvancesForDroppedEvents(t *testing.T) {
	run := func(sampler EventSampler) []Event {
		m := New(1, testCost())
		tr := &sliceTracer{}
		m.SetTracer(tr)
		m.SetSampler(sampler)
		m.Run(func(p *Proc) {
			p.BeginSpan("s")
			for i := 0; i < 6; i++ {
				p.Compute(1000)
			}
			p.EndSpan()
		})
		return tr.evs
	}
	full := run(nil)
	sampled := run(modSampler{k: 2})
	if len(sampled) >= len(full) {
		t.Fatalf("sampling dropped nothing: %d vs %d events", len(sampled), len(full))
	}
	bySeq := map[int64]Event{}
	for _, e := range full {
		bySeq[e.Seq] = e
	}
	for _, e := range sampled {
		want, ok := bySeq[e.Seq]
		if !ok {
			t.Fatalf("sampled event has Seq %d absent from the full trace", e.Seq)
		}
		if !reflect.DeepEqual(e, want) {
			t.Errorf("sampled event %+v differs from unsampled event with same Seq %+v", e, want)
		}
		if e.Seq%2 != 0 {
			t.Errorf("modSampler{2} kept odd Seq %d", e.Seq)
		}
	}
}

// TestSampledStreamIdenticalAcrossEngines: the kept set is a pure function
// of (proc, seq, kind), so both engines must record byte-identical sampled
// streams.
func TestSampledStreamIdenticalAcrossEngines(t *testing.T) {
	run := func(e Engine) []Event {
		m := New(8, testCost())
		m.SetEngine(e)
		tr := &sliceTracer{}
		m.SetTracer(tr)
		m.SetSampler(modSampler{k: 3})
		m.Run(func(p *Proc) {
			n := p.Machine().N()
			for round := 0; round < 5; round++ {
				p.Compute(float64(100 * (p.ID() + 1)))
				p.Send((p.ID()+1)%n, p.ID(), 16)
				p.Recv((p.ID() + n - 1) % n)
			}
		})
		evs := append([]Event(nil), tr.evs...)
		sortEventsForTest(evs)
		return evs
	}
	g := run(Goroutine())
	c := run(Coop(2))
	if !reflect.DeepEqual(g, c) {
		t.Fatalf("sampled streams differ across engines: %d vs %d events", len(g), len(c))
	}
	if len(g) == 0 {
		t.Fatalf("sampled stream is empty")
	}
}

// sortEventsForTest orders events by (proc, seq) — the canonical order used
// by trace.SortEvents, re-declared here because machine cannot import trace.
func sortEventsForTest(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0; j-- {
			a, b := evs[j-1], evs[j]
			if a.Proc < b.Proc || (a.Proc == b.Proc && a.Seq <= b.Seq) {
				break
			}
			evs[j-1], evs[j] = b, a
		}
	}
}

// TestSparseMailboxDirectoryRing: a full-machine ring, on 8 and on 2049
// processors, must run, drain, deliver each payload, and leave every inbox
// empty with a single slot (ring in-degree 1), read by each processor after
// its receive (Run returns the arrays to the pool).
func TestSparseMailboxDirectoryRing(t *testing.T) {
	for _, n := range []int{8, 2049} {
		m := New(n, testCost())
		held := make([][2]int, n)
		stats := m.Run(func(p *Proc) {
			nn := p.Machine().N()
			p.Send((p.ID()+1)%nn, p.ID(), 8)
			msg := p.Recv((p.ID() + nn - 1) % nn)
			if msg.Data.(int) != (p.ID()+nn-1)%nn {
				panic("wrong payload")
			}
			in := &m.in[p.ID()]
			in.mu.Lock()
			held[p.ID()] = [2]int{len(in.q), cap(in.q)}
			in.mu.Unlock()
		})
		if len(stats.Procs) != n {
			t.Fatalf("got %d proc stats, want %d", len(stats.Procs), n)
		}
		for dst, h := range held {
			if h != [2]int{0, 1} {
				t.Fatalf("P=%d: proc %d's inbox holds %d of %d slots, want 0 of 1", n, dst, h[0], h[1])
			}
		}
	}
}

// TestSparseDeadSenderCascades pins the table-walk termination broadcast: a
// receiver blocked on a processor that exits without sending must fail with
// DeadSenderError instead of hanging.
func TestSparseDeadSenderCascades(t *testing.T) {
	for _, n := range []int{8, 2049} {
		func() {
			m := New(n, testCost())
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("P=%d: run completed; want RunError with DeadSenderError", n)
				}
				re, ok := r.(*RunError)
				if !ok {
					t.Fatalf("P=%d: panic value %T, want *RunError", n, r)
				}
				var dead *DeadSenderError
				if !errors.As(re, &dead) {
					t.Fatalf("P=%d: RunError %v does not wrap DeadSenderError", n, re)
				}
				if dead.Src != 0 {
					t.Errorf("P=%d: dead sender = %d, want 0", n, dead.Src)
				}
			}()
			m.Run(func(p *Proc) {
				if p.ID() == 1 {
					p.Recv(0) // proc 0 exits immediately; this must fail, not hang
				}
			})
		}()
	}
}
