package machine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// liveFrom returns the mailboxes sourced at src.
func liveFrom(m *Machine, src int) []*mailbox {
	var live []*mailbox
	slots := m.mailboxesFrom(src)
	for i := range slots {
		if mb := slots[i].Load(); mb != nil {
			live = append(live, mb)
		}
	}
	return live
}

// TestSelfRecvFailsFast: a processor receiving from itself on an empty
// mailbox waits on the one sender that can never deposit. Every engine must
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
				t.Fatal("self-receive on an empty mailbox still blocked after 5 s")
			}
		})
	}
}

// TestMailboxInlineBufferReleasesPayload: once a burst moves a pair's queue
// off its inline first buffer, the buffer must not keep the first payload
// alive for the rest of the run.
func TestMailboxInlineBufferReleasesPayload(t *testing.T) {
	m := New(2, testCost())
	p0, p1 := &Proc{m: m, id: 0}, &Proc{m: m, id: 1}
	p0.Send(1, []byte("first"), 5)
	p0.Send(1, []byte("second"), 6)
	p1.Recv(0)
	p1.Recv(0)
	if mb := m.out[0].tab.Load().find(1); mb.buf[0].Data != nil {
		t.Errorf("inline buffer still holds payload %q after the queue grew and drained", mb.buf[0].Data)
	}
}

// TestPairDirectoryConcurrentCreate: every processor sends to, then receives
// from, the peers at strides 1, 64 and 1024 plus 20 seeded random strides, so
// senders and receivers race to create each pair and every table doubles
// under clustered keys. The run must drain, and each source's table must
// hold exactly one mailbox per distinct destination it used.
func TestPairDirectoryConcurrentCreate(t *testing.T) {
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
				used := map[int]bool{} // strides mod n: each source's peer offsets
				for _, d := range strides {
					used[d%n] = true
				}
				for src := 0; src < n; src++ {
					live := liveFrom(m, src)
					dsts := map[int]bool{}
					for _, mb := range live {
						dsts[mb.dst] = true
						if !used[(mb.dst+n-src)%n] {
							t.Fatalf("source %d has a mailbox to %d it never used", src, mb.dst)
						}
					}
					if len(live) != len(used) || len(dsts) != len(used) {
						t.Fatalf("source %d has %d mailboxes (%d distinct), want out-degree %d",
							src, len(live), len(dsts), len(used))
					}
				}
			})
		}
	}
}

// FuzzPairDirectory holds mailboxFor to a map oracle. The input decodes to a
// machine size (1 to 5000, two bytes) and a sequence of (src, dst) lookups
// (two bytes each): a known pair must return the oracle's mailbox, a new one
// a fresh mailbox keyed on its dst, and afterwards each source's table must
// hold exactly the oracle's mailboxes for that source.
func FuzzPairDirectory(f *testing.F) {
	f.Add([]byte{0, 7, 0, 1, 0, 2, 0, 1, 0, 2, 0, 2, 0, 1})
	strided := []byte{0x10, 0x04} // P = 4101
	for i := 0; i < 48; i++ {
		dst := uint16(i * 64)
		strided = append(strided, 0, 3, byte(dst>>8), byte(dst))
	}
	f.Add(strided)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(binary.BigEndian.Uint16(data))%5000
		m := New(n, testCost())
		oracle := map[[2]int]*mailbox{}
		fresh := map[*mailbox]bool{}
		for data = data[2:]; len(data) >= 4; data = data[4:] {
			src := int(binary.BigEndian.Uint16(data)) % n
			dst := int(binary.BigEndian.Uint16(data[2:])) % n
			mb := m.mailboxFor(dst, src)
			if want, ok := oracle[[2]int{src, dst}]; ok {
				if mb != want {
					t.Fatalf("lookup %d->%d returned a second mailbox", src, dst)
				}
				continue
			}
			if mb == nil || fresh[mb] || mb.dst != dst || mb.head != 0 || len(mb.queue) != 0 {
				t.Fatalf("new pair %d->%d got mailbox %+v, want a fresh one", src, dst, mb)
			}
			fresh[mb] = true
			oracle[[2]int{src, dst}] = mb
		}
		want := make([]int, n)
		for pair := range oracle {
			want[pair[0]]++
		}
		for src := 0; src < n; src++ {
			live := liveFrom(m, src)
			if len(live) != want[src] {
				t.Fatalf("source %d holds %d mailboxes, oracle has %d", src, len(live), want[src])
			}
			for _, mb := range live {
				if oracle[[2]int{src, mb.dst}] != mb {
					t.Fatalf("source %d holds a mailbox to %d the oracle does not", src, mb.dst)
				}
			}
		}
	})
}
