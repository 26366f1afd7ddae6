package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSelfRecvFailsFast: a processor receiving from itself on an empty
// inbox waits on the one sender that can never deposit. Every engine must
// fail the run at once with the same *DeadlockError — the goroutine engine
// used to park the processor forever.
func TestSelfRecvFailsFast(t *testing.T) {
	const want = "machine: processor 0 panicked: machine: deadlock: processor 0 blocked on receive from 0 with no runnable sender (1 processor(s) blocked)"
	for _, name := range []string{"goroutine", "coop", "coop:4"} {
		t.Run(name, func(t *testing.T) {
			e, err := EngineByName(name)
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan string, 1)
			go func() {
				defer func() { got <- fmt.Sprint(recover()) }()
				m := New(2, testCost())
				m.SetEngine(e)
				m.Run(func(p *Proc) {
					if p.ID() == 0 {
						p.Recv(0)
					}
				})
			}()
			select {
			case msg := <-got:
				if msg != want {
					t.Errorf("run failed with %q, want %q", msg, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("self-receive on an empty inbox still blocked after 5 s")
			}
		})
	}
}

// TestInboxDrainReleasesPayloads: once a burst from several sources has
// grown an inbox and been drained out of arrival order, no slot of its
// backing array may keep a payload alive for the rest of the run.
func TestInboxDrainReleasesPayloads(t *testing.T) {
	m := New(4, testCost())
	procs := []*Proc{{m: m, id: 0}, {m: m, id: 1}, {m: m, id: 2}, {m: m, id: 3}}
	for i := 0; i < 5; i++ {
		for _, p := range procs[1:] {
			p.Send(0, []byte("payload"), 7)
		}
	}
	for _, src := range []int{3, 1, 2} {
		for i := 0; i < 5; i++ {
			if _, ok := procs[0].TryRecv(src); !ok {
				t.Fatalf("message %d from %d missing", i, src)
			}
		}
	}
	in := &m.in[0]
	for i, msg := range in.q[:cap(in.q)] {
		if msg.Data != nil {
			t.Errorf("slot %d of the drained inbox still holds payload %q", i, msg.Data)
		}
	}
}

// TestInboxConcurrentStrides: every processor sends to, then receives from,
// the peers at strides 1, 64 and 1024 plus 20 seeded random strides, so
// every inbox takes deposits from 23 racing senders and is drained out of
// arrival order. The run must drain, and each receive must return the payload
// of the source it named.
func TestInboxConcurrentStrides(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	strides := []int{1, 64, 1024}
	for len(strides) < 23 {
		strides = append(strides, 1+rng.Intn(1<<16))
	}
	for _, n := range []int{64, 4100} {
		for _, name := range []string{"goroutine", "coop:4"} {
			t.Run(fmt.Sprintf("P=%d/%s", n, name), func(t *testing.T) {
				e, err := EngineByName(name)
				if err != nil {
					t.Fatal(err)
				}
				m := New(n, testCost())
				m.SetEngine(e)
				m.Run(func(p *Proc) {
					id := p.ID()
					for _, d := range strides {
						p.Send((id+d)%n, id, 8)
					}
					for i := len(strides) - 1; i >= 0; i-- {
						src := (id + n - strides[i]%n) % n
						if got := p.Recv(src).Data.(int); got != src {
							panic(fmt.Sprintf("processor %d got payload %d from %d", id, got, src))
						}
					}
				})
			})
		}
	}
}

// TestInboxCapacityBoundedByInFlight: two sources stream 10,000 messages
// into a receiver that takes them in a random order and never fully drains
// (a message from source 2 is always left behind). Without compaction the
// queue would only ever append; its capacity must stay within four times the
// most messages it ever held.
func TestInboxCapacityBoundedByInFlight(t *testing.T) {
	m := New(3, testCost())
	dst, a, b := &Proc{m: m, id: 0}, &Proc{m: m, id: 1}, &Proc{m: m, id: 2}
	rng := rand.New(rand.NewSource(42))
	queued := map[int]int{}
	peak, sent := 0, 0
	b.Send(0, nil, 8)
	queued[2]++
	for sent < 10000 {
		switch r := rng.Intn(10); {
		case r < 2:
			a.Send(0, nil, 8)
			queued[1]++
			sent++
		case r < 4:
			b.Send(0, nil, 8)
			queued[2]++
			sent++
		case r < 7 && queued[1] > 0:
			dst.TryRecv(1)
			queued[1]--
		case queued[2] > 1:
			dst.TryRecv(2)
			queued[2]--
		}
		in := &m.in[0]
		peak = max(peak, queued[1]+queued[2])
		if live := len(in.q) - in.head; live != queued[1]+queued[2] {
			t.Fatalf("inbox holds %d messages, sent minus received is %d", live, queued[1]+queued[2])
		}
		if cap(in.q) > 4*peak {
			t.Fatalf("after %d sends the inbox capacity is %d, peak in flight %d", sent, cap(in.q), peak)
		}
	}
	t.Logf("peak in flight %d, final capacity %d", peak, cap(m.in[0].q))
}

// TestDeadSenderWakesEveryParkedReceiver: on P=4096, 4095 receivers park on
// one sender, which waits until its parked list holds all of them and then
// returns without sending. The termination must wake every one of them with
// *DeadSenderError — under the goroutine engine too, where a missed wake-up
// hangs the run.
func TestDeadSenderWakesEveryParkedReceiver(t *testing.T) {
	const n = 4096
	const sender = n - 1 // scheduled last under coop, so it never holds a slot others need
	parked := func(p *Proc) int {
		p.parkMu.Lock()
		defer p.parkMu.Unlock()
		k := 0
		for r := p.parked; r != nil; r = r.parkNext {
			k++
		}
		return k
	}
	for _, name := range []string{"goroutine", "coop", "coop:4"} {
		t.Run(name, func(t *testing.T) {
			e, err := EngineByName(name)
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				m := New(n, testCost())
				m.SetEngine(e)
				m.Run(func(p *Proc) {
					if p.ID() == sender {
						for parked(p) < n-1 {
							runtime.Gosched()
						}
						return
					}
					p.Recv(sender)
				})
			}()
			var r any
			select {
			case r = <-got:
			case <-time.After(60 * time.Second):
				t.Fatal("receivers of a terminated sender still parked after 60 s")
			}
			var re *RunError
			if err, ok := r.(error); !ok || !errors.As(err, &re) {
				t.Fatalf("run ended with %v, want *RunError", r)
			}
			if len(re.Panics) != n-1 {
				t.Fatalf("%d processors failed, want %d", len(re.Panics), n-1)
			}
			for _, pp := range re.Panics {
				dead, ok := pp.Value.(*DeadSenderError)
				if !ok || dead.Src != sender || dead.Proc != pp.Proc {
					t.Fatalf("processor %d failed with %v, want *DeadSenderError from %d", pp.Proc, pp.Value, sender)
				}
			}
		})
	}
}

// FuzzInbox holds the inboxes to a per-pair FIFO map oracle. The input
// decodes to a machine size (1 to 64, one byte) and a sequence of three-byte
// operations on hand-built processors: a send (optionally followed by a
// transport duplicate, as a fault plan injects) or a TryRecv naming a
// source. Every TryRecv must return the oracle pair's next real message
// (dropping the duplicates ahead of it) or nothing; afterwards every inbox's
// pending pairs and the exact drainReport text must match the oracle.
func FuzzInbox(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 2, 1, 1, 1, 0, 0x80, 1, 1, 0x81, 1, 1})
	wide := []byte{63} // 64 processors: 40 sources into processor 0, taken in reverse
	for src := 40; src >= 1; src-- {
		wide = append(wide, 0, byte(src), 0)
	}
	for src := 1; src <= 40; src += 3 {
		wide = append(wide, 1, 0, byte(src))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%64
		m := New(n, testCost())
		procs := make([]*Proc, n)
		for i := range procs {
			procs[i] = &Proc{m: m, id: i}
		}
		type key struct{ src, dst int }
		type queued struct {
			id  int
			dup bool
		}
		oracle := map[key][]queued{}
		next := 0
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			op, x, y := data[0], int(data[1])%n, int(data[2])%n
			if op&1 == 0 { // x sends to y
				next++
				procs[x].Send(y, next, 8)
				oracle[key{x, y}] = append(oracle[key{x, y}], queued{id: next})
				if op&0x80 != 0 {
					m.put(y, Message{Src: x, Data: next, Bytes: 8, Dup: true})
					oracle[key{x, y}] = append(oracle[key{x, y}], queued{id: next, dup: true})
				}
				continue
			}
			// x receives from y
			q := oracle[key{y, x}]
			for len(q) > 0 && q[0].dup {
				q = q[1:]
			}
			msg, ok := procs[x].TryRecv(y)
			if len(q) == 0 {
				if ok {
					t.Fatalf("processor %d received %v from %d, oracle pair is empty", x, msg.Data, y)
				}
			} else {
				if !ok || msg.Data != q[0].id || msg.Src != y || msg.Dup {
					t.Fatalf("processor %d received %+v (ok %v) from %d, want message %d", x, msg, ok, y, q[0].id)
				}
				q = q[1:]
			}
			oracle[key{y, x}] = q
		}
		var want []leftover
		total := 0
		for k, q := range oracle {
			c := 0
			for _, e := range q {
				if !e.dup {
					c++
				}
			}
			if c > 0 {
				want = append(want, leftover{dst: k.dst, src: k.src, count: c})
				total += c
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].dst != want[j].dst {
				return want[i].dst < want[j].dst
			}
			return want[i].src < want[j].src
		})
		var got []leftover
		for dst := 0; dst < n; dst++ {
			got = m.in[dst].pending(dst, got)
		}
		sort.Slice(got, func(i, j int) bool {
			if got[i].dst != got[j].dst {
				return got[i].dst < got[j].dst
			}
			return got[i].src < got[j].src
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pending pairs %v, oracle %v", got, want)
		}
		wantReport := ""
		if total > 0 {
			var list []string
			for i, l := range want {
				if i == 8 {
					break
				}
				list = append(list, fmt.Sprintf("%d from %d to %d", l.count, l.src, l.dst))
			}
			wantReport = fmt.Sprintf("machine: %d unconsumed message(s) at program exit: %s", total, strings.Join(list, ", "))
			if len(want) > 8 {
				wantReport += fmt.Sprintf(", ... (%d more pair(s))", len(want)-8)
			}
		}
		if got := m.drainReport(); got != wantReport {
			t.Fatalf("drainReport = %q, want %q", got, wantReport)
		}
	})
}

// TestInboxPairSeqSurvivesReordering: under a tracer, each EvRecv carries
// the PairSeq its matching EvSend recorded, even when the receiver takes a
// wide fan-in out of arrival order (which sorts the inbox by source).
func TestInboxPairSeqSurvivesReordering(t *testing.T) {
	const n = 48
	m := New(n, testCost())
	tr := &sliceTracer{}
	m.SetTracer(tr)
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for k := 0; k < 3; k++ {
				for src := 1; src < n; src++ {
					if got := p.Recv(src).Data.(int); got != k {
						panic(fmt.Sprintf("message %d from %d arrived as %d", k, src, got))
					}
				}
			}
			return
		}
		for k := 0; k < 3; k++ {
			p.Send(0, k, 8)
		}
	})
	recvs := 0
	next := map[int]int64{} // the PairSeq the next receive from each source must carry
	for _, e := range tr.evs {
		switch {
		case e.Kind == EvSend && e.PairSeq >= 3:
			t.Errorf("processor %d's send stamped PairSeq %d, want < 3", e.Proc, e.PairSeq)
		case e.Kind == EvRecv:
			recvs++
			if e.PairSeq != next[e.Peer] {
				t.Errorf("receive from %d stamped PairSeq %d, want %d", e.Peer, e.PairSeq, next[e.Peer])
			}
			next[e.Peer]++
		}
	}
	if recvs != 3*(n-1) {
		t.Errorf("%d receives traced, want %d", recvs, 3*(n-1))
	}
}
