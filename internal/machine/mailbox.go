package machine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"fxpar/internal/forkjoin"
)

// inbox is one receiver's queue of deposited messages, in arrival order: the
// one communication mechanism of the machine, the same under every engine.
// Recv(src) takes the first unconsumed message whose Src is src, so per-pair
// FIFO order is append order. The machine keeps one inbox per processor and
// nothing per pair, so its memory follows the messages in flight, not the
// peers a processor ever heard from.
//
// mu guards every field. Because "is a message from src queued, has src
// terminated, park on src" is one critical section on the receiver's side
// (Proc.wait), and "deposit, claim the receiver if it is parked on me" is
// one on the sender's (Machine.put), a wake-up cannot be lost: whichever
// side locks second sees what the first one did.
type inbox struct {
	mu sync.Mutex
	// q[head:] are the unconsumed messages. Taking one closes the gap by
	// shifting the shorter side, so they stay contiguous and in order.
	q    []Message
	head int
	// waitSrc is the source the receiver is parked on, plus one; 0 when it
	// is not parked. Nonzero exactly while the receiver is on that source's
	// parked list (Proc.parked).
	waitSrc int32
	// sorted records that q[head:] is ordered by Src. A sort is stable, so
	// each pair keeps its order; an append out of order clears the flag.
	sorted bool
}

// longScan is how many other sources' messages a receive looks past before
// it sorts the queue by source. Receives then binary-search, so a wide
// fan-in drained in rank order (a gather root whose senders deposited in
// reverse) costs O(log n) per receive instead of a rescan.
const longScan = 32

// find returns the index of src's first unconsumed message, or -1, and how
// many queued messages it compared.
func (in *inbox) find(src int) (at, probes int) {
	live := in.q[in.head:]
	if !in.sorted {
		for i := range live {
			if live[i].Src == src {
				return in.head + i, i + 1
			}
			if i == longScan {
				slices.SortStableFunc(live, func(a, b Message) int { return cmp.Compare(a.Src, b.Src) })
				in.sorted = true
				probes = i + 1
				break
			}
		}
		if !in.sorted {
			return -1, len(live)
		}
	}
	if len(live) > 0 && live[0].Src == src {
		return in.head, probes + 1
	}
	i, ok := slices.BinarySearchFunc(live, src, func(m Message, src int) int { return cmp.Compare(m.Src, src) })
	probes += bits.Len(uint(len(live)))
	if !ok {
		return -1, probes
	}
	return in.head + i, probes
}

// take removes and returns q[i].
func (in *inbox) take(i int) Message {
	msg := in.q[i]
	if i-in.head <= len(in.q)-1-i {
		copy(in.q[in.head+1:i+1], in.q[in.head:i])
		in.q[in.head] = Message{} // release the payload for GC
		in.head++
	} else {
		copy(in.q[i:], in.q[i+1:])
		in.q[len(in.q)-1] = Message{}
		in.q = in.q[:len(in.q)-1]
	}
	if in.head == len(in.q) {
		in.q, in.head, in.sorted = in.q[:0], 0, false
	}
	return msg
}

// push appends msg. A full queue is compacted in place when at most half of
// it is live, and moved to an array twice its size otherwise, so the
// capacity stays under four times the most messages ever in flight, however
// the receiver drains it. Arrays come from and go back to queuePool.
func (in *inbox) push(msg Message) {
	if len(in.q) == cap(in.q) {
		old, live := in.q, in.q[in.head:]
		if cap(old) == 0 || 2*len(live) > cap(old) {
			in.q = append(getQueue(bits.Len(uint(cap(old)))), live...)
			putQueue(old)
		} else {
			in.q = append(old[:0], live...)
			clear(old[len(live):])
		}
		in.head = 0
	}
	if n := len(in.q); in.sorted && n > in.head && in.q[n-1].Src > msg.Src {
		in.sorted = false
	}
	in.q = append(in.q, msg)
}

// queuePool[k] holds cleared queue arrays of 1<<k messages for every
// machine of the process, as pointers to their first element, so getting
// and putting one allocates nothing. Arrays go back when a queue outgrows
// them and when a run has drained its inbox, so the next machine reuses them.
var queuePool [64]sync.Pool

func getQueue(k int) []Message {
	if p, _ := queuePool[k].Get().(*Message); p != nil {
		return unsafe.Slice(p, 1<<k)[:0]
	}
	return make([]Message, 0, 1<<k)
}

// putQueue clears q, so no payload stays reachable, and pools it.
func putQueue(q []Message) {
	if q = q[:cap(q)]; len(q) > 0 {
		clear(q)
		queuePool[bits.Len(uint(len(q)))-1].Put(unsafe.SliceData(q))
	}
}

// tryGet removes and returns p's next message from src if one is queued.
func (p *Proc) tryGet(src int) (Message, bool) {
	in := &p.m.in[p.id]
	in.mu.Lock()
	i, probes := in.find(src)
	p.probes += int64(probes)
	if i < 0 {
		in.mu.Unlock()
		return Message{}, false
	}
	msg := in.take(i)
	in.mu.Unlock()
	return msg, true
}

// put deposits msg into dst's inbox and wakes dst if it is parked on the
// sender. The woken receiver resumes at the later of its own clock and the
// arrival time (its clock is stable: it stopped touching it before parking).
func (m *Machine) put(dst int, msg Message) {
	in := &m.in[dst]
	in.mu.Lock()
	in.push(msg)
	claimed := in.waitSrc == int32(msg.Src)+1
	if claimed {
		in.waitSrc = 0
		m.procs[msg.Src].unlink(&m.procs[dst])
	}
	in.mu.Unlock()
	if claimed {
		w := &m.procs[dst]
		m.eng.wake(w, max(w.clock, msg.ArriveAt))
	}
}

// wait blocks p until its inbox holds a message from src or src has
// terminated. It returns true if a message may be available (not consumed —
// the caller decides whether to take it, and loops if a wake-up turns out to
// be the sender's termination) and false if src terminated with none queued,
// in which case none can ever arrive. A processor waiting on itself is the
// one sender that can never deposit: it fails at once with *DeadlockError,
// under every engine.
//
// Parking puts p on src's parked list, under src's parkMu after p's inbox
// lock (put takes them in the same order). The termination flag is checked
// under parkMu too, and senderTerminated stores it before it takes the list:
// so either the list it takes holds p, or p sees the flag.
func (p *Proc) wait(src int) bool {
	in := &p.m.in[p.id]
	in.mu.Lock()
	i, probes := in.find(src)
	p.probes += int64(probes)
	if i >= 0 {
		in.mu.Unlock()
		return true
	}
	if src == p.id {
		in.mu.Unlock()
		panic(&DeadlockError{Proc: p.id, Src: p.id, Blocked: 1})
	}
	if procs := p.m.procs; len(procs) == 0 || &procs[p.id] != p {
		// A hand-built Proc (tests) has nobody to park it and nobody to
		// wake it: only the already-deposited case can succeed.
		in.mu.Unlock()
		panic(fmt.Sprintf("machine: processor %d blocking Recv from %d outside Run", p.id, src))
	}
	s := &p.m.procs[src]
	s.parkMu.Lock()
	if p.m.terminated(src) {
		s.parkMu.Unlock()
		in.mu.Unlock()
		return false
	}
	if p.wake == nil {
		p.wake = make(chan struct{}, 1)
	}
	p.parkNext = s.parked
	if s.parked != nil {
		s.parked.parkPrev = p
	}
	s.parked = p
	in.waitSrc = int32(src) + 1
	s.parkMu.Unlock()
	in.mu.Unlock()
	p.m.eng.park(p, src)
	return true
}

// unlink takes r off p's parked list. Called with r's inbox locked.
func (p *Proc) unlink(r *Proc) {
	p.parkMu.Lock()
	if r.parkPrev != nil {
		r.parkPrev.parkNext = r.parkNext
	} else {
		p.parked = r.parkNext
	}
	if r.parkNext != nil {
		r.parkNext.parkPrev = r.parkPrev
	}
	r.parkPrev, r.parkNext = nil, nil
	p.parkMu.Unlock()
}

// unpark takes p off the parked list of the source it waits on, if any: a
// coop processor unwinding from the deadlock verdict stops waiting without
// being claimed.
func (p *Proc) unpark() {
	in := &p.m.in[p.id]
	in.mu.Lock()
	if in.waitSrc != 0 {
		p.m.procs[in.waitSrc-1].unlink(p)
		in.waitSrc = 0
	}
	in.mu.Unlock()
}

// senderTerminated wakes every receiver parked on s, whose SPMD body has
// terminated (Run stores the termination flag first). It takes the whole
// parked list at once — O(receivers parked on s), not O(P) — and wakes each
// at its own clock: nothing arrived, it will re-check and fail. Only s
// claims from its list, and s has stopped sending, so the taken receivers
// stay parked until woken here.
func (m *Machine) senderTerminated(s *Proc) {
	s.parkMu.Lock()
	r := s.parked
	s.parked = nil
	s.parkMu.Unlock()
	for r != nil {
		next := r.parkNext
		r.parkPrev, r.parkNext = nil, nil
		in := &m.in[r.id]
		in.mu.Lock()
		in.waitSrc = 0
		in.mu.Unlock()
		m.eng.wake(r, r.clock)
		r = next
	}
}

// leftover is one pair's unconsumed messages at program exit.
type leftover struct{ dst, src, count int }

// pending appends the pairs with messages left in dst's inbox, in no
// particular order; a drained inbox returns its array to the pool. Only
// valid when no processor goroutines are running (Run's exit check).
// Transport duplicates injected by a fault plan are excluded: a receiver
// consumes a pair's real traffic without necessarily touching trailing
// duplicates, and leftovers of the transport layer are not a protocol bug.
func (in *inbox) pending(dst int, out []leftover) []leftover {
	if in.head == len(in.q) {
		putQueue(in.q)
		in.q, in.head = nil, 0
		return out
	}
	counts := map[int]int{}
	for _, msg := range in.q[in.head:] {
		if !msg.Dup {
			counts[msg.Src]++
		}
	}
	for src, c := range counts {
		out = append(out, leftover{dst: dst, src: src, count: c})
	}
	return out
}

// drainReport walks every inbox after a run (ranges folded in parallel on
// large machines) and, if any message was left unconsumed, formats a
// diagnostic naming each offending src->dst pair with its leftover count
// (capped at eight pairs so an all-to-all protocol bug stays readable).
// Pairs are reported in (dst, src) order — collection order is subrange-
// and map-order-dependent, so the collected pairs are sorted to keep the
// diagnostic deterministic. Returns "" when the machine drained cleanly.
func (m *Machine) drainReport() string {
	const maxPairs = 8
	total := 0
	var pairs []leftover
	var mu sync.Mutex
	forkjoin.For(m.n, initGrain, func(lo, hi int) {
		var local []leftover
		for dst := lo; dst < hi; dst++ {
			local = m.in[dst].pending(dst, local)
		}
		if len(local) > 0 {
			mu.Lock()
			for _, l := range local {
				total += l.count
			}
			pairs = append(pairs, local...)
			mu.Unlock()
		}
	})
	if total == 0 {
		return ""
	}
	slices.SortFunc(pairs, func(a, b leftover) int { return cmp.Or(cmp.Compare(a.dst, b.dst), cmp.Compare(a.src, b.src)) })
	var list []string
	for i, p := range pairs {
		if i == maxPairs {
			break
		}
		list = append(list, fmt.Sprintf("%d from %d to %d", p.count, p.src, p.dst))
	}
	msg := fmt.Sprintf("machine: %d unconsumed message(s) at program exit: %s",
		total, strings.Join(list, ", "))
	if len(pairs) > maxPairs {
		msg += fmt.Sprintf(", ... (%d more pair(s))", len(pairs)-maxPairs)
	}
	return msg
}
