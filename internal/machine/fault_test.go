package machine

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// stubPlan is a hand-scripted FaultPlan for machine-layer tests (the real
// seeded plans live in internal/fault, which depends on this package).
type stubPlan struct {
	msg   func(src, dst int, seq int64) MessageFault
	slow  map[int]float64
	death map[int]float64
}

func (s *stubPlan) MessageFault(src, dst int, seq int64) MessageFault {
	if s.msg == nil {
		return MessageFault{}
	}
	return s.msg(src, dst, seq)
}

func (s *stubPlan) ProcFaults(n int, visit func(proc int, slow, deathAt float64)) {
	for i := 0; i < n; i++ {
		if slow, deathAt := s.slow[i], s.death[i]; slow > 0 || deathAt > 0 {
			visit(i, slow, deathAt)
		}
	}
}

// TestDelayFaultAddsWireTime: injected delay moves a message's arrival and
// the receiver's clock, deterministically, on every engine.
func TestDelayFaultAddsWireTime(t *testing.T) {
	const extra = 0.5
	run := func(e Engine, inject bool) RunStats {
		m := New(2, testCost())
		m.SetEngine(e)
		if inject {
			m.SetFaults(&stubPlan{msg: func(src, dst int, seq int64) MessageFault {
				return MessageFault{Delay: extra}
			}})
		}
		return m.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Send(1, "x", 8)
			} else {
				p.Recv(0)
			}
		})
	}
	for _, e := range engines() {
		healthy := run(e, false)
		chaotic := run(e, true)
		d := chaotic.Procs[1].Finish - healthy.Procs[1].Finish
		if math.Abs(d-extra) > 1e-12 {
			t.Errorf("%s: injected delay shifted receiver finish by %g, want %g", e.Name(), d, extra)
		}
		if chaotic.Procs[0].Finish != healthy.Procs[0].Finish {
			t.Errorf("%s: sender cost changed by a wire delay", e.Name())
		}
	}
}

// TestSlowdownScalesLocalTime: a slowdown factor multiplies compute and
// send-overhead time of the slowed processor only.
func TestSlowdownScalesLocalTime(t *testing.T) {
	run := func(slow map[int]float64) RunStats {
		m := New(2, testCost())
		if slow != nil {
			m.SetFaults(&stubPlan{slow: slow})
		}
		return m.Run(func(p *Proc) {
			p.Compute(1000)
			if p.ID() == 0 {
				p.Send(1, "x", 8)
			} else {
				p.Recv(0)
			}
		})
	}
	healthy := run(nil)
	chaotic := run(map[int]float64{0: 3})
	if got, want := chaotic.Procs[0].Busy, 3*healthy.Procs[0].Busy; math.Abs(got-want) > 1e-12 {
		t.Errorf("slowed busy = %g, want %g", got, want)
	}
	// Processor 1's own busy time is unchanged; only its wait grows.
	if chaotic.Procs[1].Busy != healthy.Procs[1].Busy {
		t.Errorf("healthy processor's busy time changed: %g vs %g", chaotic.Procs[1].Busy, healthy.Procs[1].Busy)
	}
}

// TestDuplicateIsDiscarded: a duplicated message is delivered once to the
// application, leaves no undrained mailbox, and records the discard.
func TestDuplicateIsDiscarded(t *testing.T) {
	for _, e := range engines() {
		var tr sliceTracer
		m := New(2, testCost())
		m.SetEngine(e)
		m.SetTracer(&tr)
		m.SetFaults(&stubPlan{msg: func(src, dst int, seq int64) MessageFault {
			return MessageFault{Duplicate: true}
		}})
		m.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Send(1, 7, 8)
				p.Send(1, 8, 8)
			} else {
				if got := p.Recv(0).Data.(int); got != 7 {
					t.Fatalf("%s: first recv = %d", e.Name(), got)
				}
				if got := p.Recv(0).Data.(int); got != 8 {
					t.Fatalf("%s: second recv = %d", e.Name(), got)
				}
			}
		})
		dups, drops := 0, 0
		for _, ev := range tr.evs {
			if ev.Kind == EvFault && ev.Label == FaultDup {
				dups++
			}
			if ev.Kind == EvFault && ev.Label == FaultDupDrop {
				drops++
			}
		}
		if dups != 2 {
			t.Errorf("%s: %d dup markers, want 2", e.Name(), dups)
		}
		// The duplicate of message 1 is discarded when receiving message 2;
		// the trailing duplicate of message 2 may stay in the mailbox (the
		// drain check must tolerate it — reaching here means it did).
		if drops != 1 {
			t.Errorf("%s: %d dup-drop markers, want 1", e.Name(), drops)
		}
	}
}

// TestRetransmitMarkers: modeled drops surface as EvRetry markers plus
// delay, never as message loss.
func TestRetransmitMarkers(t *testing.T) {
	var tr sliceTracer
	m := New(2, testCost())
	m.SetTracer(&tr)
	m.SetFaults(&stubPlan{msg: func(src, dst int, seq int64) MessageFault {
		if seq == 0 {
			return MessageFault{Retries: 2, Delay: 0.25}
		}
		return MessageFault{}
	}})
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, "a", 8)
			p.Send(1, "b", 8)
		} else {
			p.Recv(0)
			p.Recv(0)
		}
	})
	retries := 0
	for _, ev := range tr.evs {
		if ev.Kind == EvRetry {
			retries++
			if ev.Peer != 1 {
				t.Errorf("retry marker peer = %d, want 1", ev.Peer)
			}
		}
	}
	if retries != 2 {
		t.Errorf("%d retry markers, want 2", retries)
	}
}

// TestDeathPanicsTyped: a killed processor fails at the first operation at
// or after its death time; Run reports the death as the root cause and the
// receivers waiting on it as the cascade.
func TestDeathPanicsTyped(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.Name(), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("run with a killed processor did not fail")
				}
				re, ok := r.(*RunError)
				if !ok {
					t.Fatalf("panic value %T, want *RunError", r)
				}
				root := re.Root()
				de, ok := root.Value.(*ProcDeathError)
				if !ok || de.Proc != 0 {
					t.Fatalf("root cause %v, want death of processor 0", root.Value)
				}
				// errors.As finds the typed causes through the aggregate.
				var ds *DeadSenderError
				if !errors.As(re, &ds) {
					t.Fatal("no DeadSenderError in the cascade")
				}
				if ds.Src != 0 || !ds.SrcPanicked {
					t.Fatalf("cascade error %+v, want panicked sender 0", ds)
				}
			}()
			m := New(2, testCost())
			m.SetEngine(e)
			m.SetFaults(&stubPlan{death: map[int]float64{0: 0.5}})
			m.Run(func(p *Proc) {
				if p.ID() == 0 {
					p.Elapse(1) // crosses the death time
					p.Compute(1)
					p.Send(1, "never", 8)
				} else {
					p.Recv(0)
				}
			})
		})
	}
}

// TestChaosByteIdenticalAcrossEngines: the same scripted fault plan yields
// identical traces and stats under every engine and under the shuffled
// coop scheduler — determinism does not depend on host scheduling order.
func TestChaosByteIdenticalAcrossEngines(t *testing.T) {
	plan := func() *stubPlan {
		return &stubPlan{
			msg: func(src, dst int, seq int64) MessageFault {
				var mf MessageFault
				if (src+dst+int(seq))%3 == 0 {
					mf.Delay = 1e-3 * float64(1+seq%4)
				}
				if (src*7+int(seq))%5 == 0 {
					mf.Duplicate = true
				}
				if int(seq)%4 == 1 {
					mf.Retries = 1
					mf.Delay += 5e-4
				}
				return mf
			},
			slow: map[int]float64{2: 2.5},
		}
	}
	run := func(e Engine) (RunStats, []Event) {
		var tr sliceTracer
		m := New(8, testCost())
		m.SetEngine(e)
		m.SetTracer(&tr)
		m.SetFaults(plan())
		stats := m.Run(func(p *Proc) {
			n := p.Machine().N()
			for round := 0; round < 6; round++ {
				p.Compute(float64(50 * (p.ID() + 1)))
				p.Send((p.ID()+1)%n, p.ID(), 64)
				p.Recv((p.ID() + n - 1) % n)
			}
		})
		byProc := make(map[int][]Event)
		for _, ev := range tr.evs {
			byProc[ev.Proc] = append(byProc[ev.Proc], ev)
		}
		var flat []Event
		for id := 0; id < 8; id++ {
			evs := byProc[id]
			sortEventsBySeq(evs)
			flat = append(flat, evs...)
		}
		return stats, flat
	}
	baseStats, baseEvents := run(Goroutine())
	for _, e := range []Engine{Coop(1), Coop(4), CoopShuffled(1, 99), CoopShuffled(4, 7)} {
		stats, events := run(e)
		if !reflect.DeepEqual(stats, baseStats) {
			t.Errorf("%s: chaotic RunStats diverge from goroutine engine", e.Name())
		}
		if !reflect.DeepEqual(events, baseEvents) {
			t.Errorf("%s: chaotic traces diverge from goroutine engine (%d vs %d events)",
				e.Name(), len(events), len(baseEvents))
		}
	}
}

// TestNilPlanHotPathNoAllocs: with no fault plan the added guards must not
// allocate (the existing nil-tracer guard covers the tracer side; this one
// pins the fault side on a machine that has a tracer-free fault check).
func TestNilPlanHotPathNoAllocs(t *testing.T) {
	m := New(2, testCost())
	p0 := &Proc{m: m, id: 0}
	p1 := &Proc{m: m, id: 1}
	p0.Send(1, nil, 64) // warm up the mailbox
	p1.TryRecv(0)
	allocs := testing.AllocsPerRun(200, func() {
		p0.Compute(10)
		p0.Send(1, nil, 64)
		p1.TryRecv(0)
		p1.Elapse(1e-6)
	})
	if allocs != 0 {
		t.Errorf("nil-fault-plan hot path allocates %.1f per op cycle, want 0", allocs)
	}
}

// TestShuffleEngineSelectors: the +shuffle@seed modifier parses, round
// trips through Name, and rejects bad forms.
func TestShuffleEngineSelectors(t *testing.T) {
	good := []string{"coop+shuffle@7", "coop:4+shuffle@7", "coop:2+shuffle@0"}
	for _, name := range good {
		e, err := EngineByName(name)
		if err != nil {
			t.Errorf("EngineByName(%q): %v", name, err)
			continue
		}
		if e.Name() != name {
			t.Errorf("EngineByName(%q).Name() = %q", name, e.Name())
		}
	}
	bad := []string{"goroutine+shuffle@7", "coop+shuffle@", "coop+shuffle@x", "coop+spin@1", "coop:0+shuffle@1"}
	for _, name := range bad {
		if e, err := EngineByName(name); err == nil {
			t.Errorf("EngineByName(%q) = %v, want error", name, e.Name())
		}
	}
}
