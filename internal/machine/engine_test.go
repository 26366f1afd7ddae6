package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestEngineByName(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", "goroutine", false},
		{"goroutine", "goroutine", false},
		{"coop", "coop", false},
		{"coop:1", "coop", false},
		{"coop:4", "coop:4", false},
		{"coop:0", "", true},
		{"coop:x", "", true},
		{"fiber", "", true},
	}
	for _, c := range cases {
		e, err := EngineByName(c.in)
		if c.err {
			if err == nil {
				t.Errorf("EngineByName(%q): want error, got %v", c.in, e.Name())
			}
			continue
		}
		if err != nil {
			t.Errorf("EngineByName(%q): %v", c.in, err)
			continue
		}
		if e.Name() != c.want {
			t.Errorf("EngineByName(%q).Name() = %q, want %q", c.in, e.Name(), c.want)
		}
	}
}

func TestSetEngineNilKeepsDefault(t *testing.T) {
	m := New(2, testCost())
	def := m.Engine()
	m.SetEngine(nil)
	if m.Engine() != def {
		t.Fatal("SetEngine(nil) replaced the engine")
	}
	m.SetEngine(Coop(1))
	if m.Engine().Name() != "coop" {
		t.Fatalf("engine = %q after SetEngine(Coop(1))", m.Engine().Name())
	}
}

// engines lists every engine variant a cross-engine test should cover:
// the default goroutine core, the single-slot coop core (deterministic host
// order), and a multi-slot coop core.
func engines() []Engine {
	return []Engine{Goroutine(), Coop(1), Coop(3)}
}

// TestEnginesProduceIdenticalResults runs the same message-heavy program
// under every engine and requires identical RunStats — virtual time is a
// property of the program and the cost model, never of the execution core.
func TestEnginesProduceIdenticalResults(t *testing.T) {
	run := func(e Engine) RunStats {
		m := New(8, testCost())
		m.SetEngine(e)
		return m.Run(func(p *Proc) {
			n := p.Machine().N()
			for round := 0; round < 5; round++ {
				p.Compute(float64(100 * (p.ID() + 1)))
				next, prev := (p.ID()+1)%n, (p.ID()+n-1)%n
				p.Send(next, p.ID(), 64)
				p.Recv(prev)
			}
		})
	}
	want := run(Goroutine())
	for _, e := range engines()[1:] {
		if got := run(e); !reflect.DeepEqual(got, want) {
			t.Errorf("engine %q RunStats diverge:\n got %+v\nwant %+v", e.Name(), got, want)
		}
	}
}

// TestEnginesProduceIdenticalTraces compares full event streams, per
// processor and in per-processor Seq order, across engines.
func TestEnginesProduceIdenticalTraces(t *testing.T) {
	run := func(e Engine) map[int][]Event {
		var tr sliceTracer
		m := New(4, testCost())
		m.SetEngine(e)
		m.SetTracer(&tr)
		m.Run(func(p *Proc) {
			p.BeginSpan("stage")
			p.Compute(float64(10 * (p.ID() + 1)))
			if p.ID() != 0 {
				p.Send(0, p.ID(), 32)
			} else {
				for src := 1; src < 4; src++ {
					p.Recv(src)
				}
			}
			p.EndSpan()
		})
		byProc := make(map[int][]Event)
		for _, ev := range tr.evs {
			byProc[ev.Proc] = append(byProc[ev.Proc], ev)
		}
		for _, evs := range byProc {
			sortEventsBySeq(evs)
		}
		return byProc
	}
	want := run(Goroutine())
	for _, e := range engines()[1:] {
		got := run(e)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("engine %q traces diverge", e.Name())
		}
	}
}

func sortEventsBySeq(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Seq < evs[j-1].Seq; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// TestCoopDetectsDeadlock: under the coop engine a cyclic wait is detected
// and reported instead of hanging the process like the goroutine engine
// would.
func TestCoopDetectsDeadlock(t *testing.T) {
	for _, e := range []Engine{Coop(1), Coop(2)} {
		t.Run(e.Name(), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("deadlocked run returned without panicking")
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "blocked on receive") {
					t.Fatalf("panic = %q, want deadlock diagnostic", msg)
				}
			}()
			m := New(2, testCost())
			m.SetEngine(e)
			m.Run(func(p *Proc) {
				// Both processors wait on the other; neither ever sends.
				p.Recv(1 - p.ID())
			})
		})
	}
}

// TestRecvFromExitedProcFails: a receive from a processor that exited
// without sending is a dead-sender failure on every engine — it used to
// hang the goroutine engine forever and trip the coop engine's deadlock
// detector; now both report the root cause.
func TestRecvFromExitedProcFails(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.Name(), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("run with an unsatisfiable receive returned without panicking")
				}
				re, ok := r.(*RunError)
				if !ok {
					t.Fatalf("panic value %T, want *RunError", r)
				}
				root := re.Root()
				ds, ok := root.Value.(*DeadSenderError)
				if !ok {
					t.Fatalf("root cause %T (%v), want *DeadSenderError", root.Value, root.Value)
				}
				if ds.Src != 0 || ds.SrcPanicked {
					t.Fatalf("DeadSenderError = %+v, want clean exit of processor 0", ds)
				}
				if !strings.Contains(re.Error(), "blocked on receive from 0") {
					t.Fatalf("error %q missing diagnostic", re.Error())
				}
			}()
			m := New(4, testCost())
			m.SetEngine(e)
			m.Run(func(p *Proc) {
				if p.ID() < 2 {
					return // finish immediately
				}
				p.Recv(0) // 0 has already exited: wait can never be satisfied
			})
		})
	}
}

// TestBlockedRecvOutsideRunPanics: a standalone Proc (constructed by tests
// without Run) has nobody to park it and nobody to wake it; a Recv that
// would block must fail loudly, with the same message under every engine,
// rather than spin or wait forever. An already-deposited message is still
// received.
func TestBlockedRecvOutsideRunPanics(t *testing.T) {
	var msgs []string
	for _, e := range []Engine{Goroutine(), Coop(1), Coop(2)} {
		t.Run(e.Name(), func(t *testing.T) {
			m := New(2, testCost())
			m.SetEngine(e)
			p0, p1 := &Proc{m: m, id: 0}, &Proc{m: m, id: 1}
			p1.Send(0, "x", 4)
			if got := p0.Recv(1); got.Data != "x" {
				t.Fatalf("deposited message = %+v", got)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("blocking Recv outside Run did not panic")
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "outside Run") {
					t.Fatalf("panic = %q", msg)
				}
				msgs = append(msgs, msg)
			}()
			p0.Recv(1)
		})
	}
	for _, msg := range msgs {
		if msg != msgs[0] {
			t.Errorf("engines disagree on the panic: %q vs %q", msg, msgs[0])
		}
	}
}

// TestUnconsumedMessageNamesPairs: the drain failure names each offending
// (src, dst) pair with its leftover count.
func TestUnconsumedMessageNamesPairs(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.Name(), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("undrained run returned without panicking")
				}
				msg := fmt.Sprint(r)
				for _, want := range []string{
					"3 unconsumed message(s)",
					"2 from 0 to 1",
					"1 from 2 to 3",
				} {
					if !strings.Contains(msg, want) {
						t.Errorf("drain panic %q missing %q", msg, want)
					}
				}
			}()
			m := New(4, testCost())
			m.SetEngine(e)
			m.Run(func(p *Proc) {
				switch p.ID() {
				case 0:
					p.Send(1, 1, 4) // never received
					p.Send(1, 2, 4) // never received
				case 2:
					p.Send(3, 3, 4) // never received
				}
			})
		})
	}
}

// TestUnconsumedMessagePairListIsCapped: a protocol bug touching many pairs
// reports a bounded list plus a remainder count.
func TestUnconsumedMessagePairListIsCapped(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("undrained run returned without panicking")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "12 unconsumed message(s)") {
			t.Errorf("drain panic %q missing total", msg)
		}
		if !strings.Contains(msg, "4 more pair(s)") {
			t.Errorf("drain panic %q missing the capped remainder", msg)
		}
	}()
	m := New(13, testCost())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for dst := 1; dst < 13; dst++ {
				p.Send(dst, dst, 4)
			}
		}
	})
}

// TestDefaultEngineName: the flag default reflects the package default.
func TestDefaultEngineName(t *testing.T) {
	if got := DefaultEngineName(); got != defaultEngine.Name() {
		t.Fatalf("DefaultEngineName() = %q, engine is %q", got, defaultEngine.Name())
	}
	if _, err := EngineByName(DefaultEngineName()); err != nil {
		t.Fatalf("DefaultEngineName() %q is not a valid selector: %v", DefaultEngineName(), err)
	}
}

// TestCoopManyProcsFewWorkers: hundreds of processors multiplexed on two
// host slots still complete a full ring pipeline.
func TestCoopManyProcsFewWorkers(t *testing.T) {
	m := New(300, testCost())
	m.SetEngine(Coop(2))
	stats := m.Run(func(p *Proc) {
		n := p.Machine().N()
		if p.ID() == 0 {
			p.Send(1, 0, 8)
			p.Recv(n - 1)
		} else {
			p.Recv(p.ID() - 1)
			p.Send((p.ID()+1)%n, p.ID(), 8)
		}
	})
	if len(stats.Procs) != 300 {
		t.Fatalf("stats for %d procs", len(stats.Procs))
	}
	if stats.MakespanTime() <= 0 {
		t.Fatal("ring pipeline produced zero makespan")
	}
}

// TestCoopSchedulerSameAtEveryWorkerCount: one worker and four go through
// the same ready heap and the same release path, so the three things the
// scheduler does beyond running processors — hand a slot to a receiver the
// moment its message lands (ping-pong), unwind a kill cascade, and reach the
// all-blocked verdict on a cyclic wait — must come out byte-identical, the
// DeadlockError naming the same (receiver, sender) pairs with the same
// blocked counts. Run it under -race: coop:4 is where the heap is shared.
func TestCoopSchedulerSameAtEveryWorkerCount(t *testing.T) {
	const n = 10
	pingPong := func(p *Proc) {
		peer := p.ID() ^ 1
		for round := 0; round < 200; round++ {
			if (p.ID()+round)%2 == 0 {
				p.Send(peer, round, 8+p.ID())
				p.Recv(peer)
			} else {
				p.Recv(peer)
				p.Compute(float64(5 + p.ID()))
				p.Send(peer, round, 8)
			}
		}
	}
	// Processors 0-5 wait on each other in a cycle at distinct clocks and
	// never send; 6-9 exchange a message and finish.
	cyclic := func(p *Proc) {
		if p.ID() >= 6 {
			p.Send(p.ID()^1, nil, 8)
			p.Recv(p.ID() ^ 1)
			return
		}
		p.Compute(float64(100 * (6 - p.ID())))
		p.Recv((p.ID() + 1) % 6)
	}
	cases := []struct {
		name string
		plan func() FaultPlan
		body func(*Proc)
		want []string
	}{
		{"ping-pong", func() FaultPlan { return nil }, pingPong, nil},
		{"kill-cascade", func() FaultPlan { return &killTestPlan{victim: n / 2} }, ringBody(n),
			[]string{"processor 5 died", "proc 6: machine: processor 6 blocked on receive from 5, which failed"}},
		{"cyclic-wait", func() FaultPlan { return nil }, cyclic, []string{
			"proc 0: machine: deadlock: processor 0 blocked on receive from 1 with no runnable sender (1 processor(s) blocked)",
			"proc 5: machine: deadlock: processor 5 blocked on receive from 0 with no runnable sender (6 processor(s) blocked)",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := goldenRun(t, Coop(1), n, c.plan(), c.body)
			if (ref.failure != "") != (c.want != nil) {
				t.Fatalf("coop run failure = %q", ref.failure)
			}
			for _, want := range c.want {
				if !strings.Contains(ref.failure, want) {
					t.Errorf("coop failure %q missing %q", ref.failure, want)
				}
			}
			for round := 0; round < 5; round++ {
				compareGolden(t, "coop:4", ref, goldenRun(t, Coop(4), n, c.plan(), c.body))
			}
		})
	}
}

// FuzzEngineByName: no selector string makes EngineByName panic, and every
// selector it accepts names an engine whose own Name() is a fixed point —
// the property -engine flag defaults and FXPAR_ENGINE round-trips rely on.
func FuzzEngineByName(f *testing.F) {
	for _, seed := range []string{"", "goroutine", "coop", "coop:1", "coop:4", "coop:0", "coop:-3", "coop:x",
		"coop:4+shuffle@7", "coop+shuffle@18446744073709551615", "coop+shuffle@", "coop+shuffle@-1",
		"goroutine+shuffle@1", "coop:+4", "coop:04", "coop:4+", "coop:99999999999999999999", "fiber", "+", ":"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		e, err := EngineByName(name)
		if err != nil {
			return
		}
		again, err := EngineByName(e.Name())
		if err != nil {
			t.Fatalf("EngineByName(%q) accepted, but its Name() %q is rejected: %v", name, e.Name(), err)
		}
		if again.Name() != e.Name() {
			t.Fatalf("EngineByName(%q).Name() = %q, which resolves to %q", name, e.Name(), again.Name())
		}
	})
}
