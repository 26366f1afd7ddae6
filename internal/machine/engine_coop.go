package machine

import (
	"fmt"
	"sort"
	"sync"

	"fxpar/internal/forkjoin"
)

// coopEngine is the cooperative, dependency-driven execution core. All
// simulated processors are multiplexed onto a bounded set of host worker
// slots (default one): a processor runs uninterrupted until it blocks on a
// receive with nothing queued or finishes, then hands its slot directly to the ready
// processor with the lowest virtual clock — the cooperative analogue of a
// discrete-event scheduler. A blocked receiver parks in the scheduler, and
// a deposit into its inbox moves it to the ready heap; there is no host
// wakeup for messages whose receiver is still running.
//
// The scheduler is one ready heap and two counters under one mutex, at every
// worker count. With one slot (the default) at most one processor executes
// at any host instant, the mutex is never contended, and host execution
// order is fully deterministic — lowest-virtual-clock-first. With more
// slots independent processors run in parallel on a multi-core host and the
// order is no longer fixed; virtual time is, as under every engine.
//
// Unlike the goroutine engine — where a cyclic wait hangs the run forever —
// the coop scheduler detects the all-blocked state and fails the run with a
// panic naming the blocked (receiver, sender) pairs.
type coopEngine struct {
	workers int
	// shuffled breaks same-clock ready-heap ties by a seeded hash of the
	// processor id instead of by id: a deterministic schedule perturbation
	// (selector suffix "+shuffle@SEED") used to flush out hidden
	// host-order dependencies. Virtual-time results must be — and are
	// asserted to be — identical either way.
	shuffled    bool
	shuffleSeed uint64
}

// Coop returns the cooperative run-queue engine with the given number of
// host worker slots; workers < 1 means one. More slots run independent
// processors in parallel on multi-core hosts (campaign-level parallelism via
// internal/sweep remains the alternative when many simulations are in
// flight).
func Coop(workers int) Engine {
	return &coopEngine{workers: max(workers, 1)}
}

// CoopShuffled is Coop with seeded tie-breaking of same-clock ready
// processors (the "coop:N+shuffle@SEED" selector).
func CoopShuffled(workers int, seed uint64) Engine {
	return &coopEngine{workers: max(workers, 1), shuffled: true, shuffleSeed: seed}
}

func (e *coopEngine) Name() string {
	name := "coop"
	if e.workers != 1 {
		name = fmt.Sprintf("coop:%d", e.workers)
	}
	if e.shuffled {
		name = fmt.Sprintf("%s+shuffle@%d", name, e.shuffleSeed)
	}
	return name
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijection used
// to derive the shuffle tie-break keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// coopProc is the scheduler's per-processor state, guarded by coopRun.mu.
type coopProc struct {
	p   *Proc
	run *coopRun
	// readyKey orders the ready heap: the virtual clock the processor will
	// resume at.
	readyKey float64
	// tie breaks same-readyKey heap comparisons before the id does: 0
	// normally (id order), a seeded hash of the id in shuffle mode.
	tie uint64
	// done marks a finished processor.
	done bool
	// poison tells a parked processor to abort: the scheduler found the
	// machine deadlocked.
	poison bool
}

// coopRun is the shared scheduler state of one Machine.Run.
type coopRun struct {
	workers int

	mu      sync.Mutex
	ready   []*coopProc // min-heap by (readyKey, tie, id)
	running int         // processors currently holding a worker slot
	live    int         // processors not yet finished
	cps     []coopProc
}

func (e *coopEngine) run(m *Machine, procs []Proc, body func(*Proc), rec *panicRecorder) {
	n := len(procs)
	r := &coopRun{
		workers: min(e.workers, n),
		live:    n,
		cps:     make([]coopProc, n),
		ready:   make([]*coopProc, n),
	}
	// Every processor is ready at clock 0. With all keys equal and ties
	// broken by ascending id, an id-ordered slice already satisfies the heap
	// property, so the heap is built by direct placement instead of n
	// pushes; shuffle mode perturbs the tie keys and sorts by the full
	// comparator instead — a sorted slice is a valid heap too. Every
	// processor gets its wake channel here: it waits on it for its first
	// slot grant.
	forkjoin.For(n, initGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cp := &r.cps[i]
			cp.p = &procs[i]
			cp.run = r
			if e.shuffled {
				cp.tie = mix64(e.shuffleSeed ^ uint64(i))
			}
			procs[i].cp = cp
			procs[i].wake = make(chan struct{}, 1)
			r.ready[i] = cp
		}
	})
	if e.shuffled {
		sort.Slice(r.ready, func(i, j int) bool { return coopLess(r.ready[i], r.ready[j]) })
	}
	var wg sync.WaitGroup
	wg.Add(n)
	treeSpawn(n, spawnGrain, func(i int) {
		cp := &r.cps[i]
		defer wg.Done()
		<-cp.p.wake
		// finish runs after the capture below (LIFO), so the slot handoff
		// happens even when the body panics.
		defer r.finish(cp)
		defer rec.capture(cp.p.id)
		body(cp.p)
	})
	// Grant the worker slots in heap order (processor 0 first by default);
	// under the lock, because the first processor granted starts scheduling
	// at once.
	r.mu.Lock()
	for ; r.running < r.workers; r.running++ {
		grant(heapPop(&r.ready))
	}
	r.mu.Unlock()
	wg.Wait()
}

// park gives up p's worker slot and suspends it until a deposit, the
// sender's termination, or the deadlock verdict reschedules it. A processor
// that recovered the verdict's panic and blocks again gets it again at once:
// wake ignores poisoned processors, so it must not wait for one.
func (e *coopEngine) park(p *Proc, src int) {
	cp := p.cp
	if !cp.poison {
		cp.run.yield()
		<-p.wake
	}
	if cp.poison {
		p.unpark()
		panic(&DeadlockError{Proc: p.id, Src: src, Blocked: cp.run.blockedCount()})
	}
}

func (e *coopEngine) wake(p *Proc, at float64) { p.cp.run.readyProc(p.cp, at) }

// releaseLocked gives up the caller's worker slot and returns the processor
// to grant it to, if any: the lowest-clock ready processor, else nobody (the
// slot goes free). If that leaves no processor running while some are still
// live, every one of them is blocked on a receive with no runnable sender —
// deadlock: they are poisoned and rescheduled so each aborts with a
// diagnostic instead of hanging forever. The verdict is sound because
// whoever readies a processor holds a slot itself (depositors and
// terminating senders run on granted slots): running can only reach zero
// when no readyProc is in flight. Callers hold r.mu.
func (r *coopRun) releaseLocked() *coopProc {
	if next := heapPop(&r.ready); next != nil {
		return next
	}
	r.running--
	if r.running > 0 || r.live == 0 {
		return nil
	}
	// Poison every unfinished processor — all are parked, so their clocks
	// are stable — and grant one slot, so they unwind one at a time in clock
	// order (each panic is captured per-processor and reported by Run).
	for i := range r.cps {
		if cp := &r.cps[i]; !cp.done {
			cp.poison = true
			cp.readyKey = cp.p.clock
			heapPush(&r.ready, cp)
		}
	}
	r.running++
	return heapPop(&r.ready)
}

// grant hands a worker slot (already counted in running) to cp, if any. The
// buffered wake channel takes it whether or not cp has parked yet.
func grant(cp *coopProc) {
	if cp != nil {
		cp.p.wake <- struct{}{}
	}
}

// yield releases the caller's worker slot; the caller, about to block, parks
// on its wake channel immediately after.
func (r *coopRun) yield() {
	r.mu.Lock()
	next := r.releaseLocked()
	r.mu.Unlock()
	grant(next)
}

// finish retires a completed processor and hands its slot on.
func (r *coopRun) finish(cp *coopProc) {
	r.mu.Lock()
	cp.done = true
	r.live--
	next := r.releaseLocked()
	r.mu.Unlock()
	grant(next)
}

// readyProc makes a parked receiver runnable at clock at: grant it a free
// worker slot if there is one (a slot is only ever freed with the heap
// empty, so it is then the lowest-clock ready processor), else push it on
// the ready heap. A poisoned processor is already scheduled to unwind; the
// wake a terminating neighbour sends it is dropped.
func (r *coopRun) readyProc(cp *coopProc, at float64) {
	var next *coopProc
	r.mu.Lock()
	if !cp.poison {
		cp.readyKey = at
		if r.running < r.workers {
			r.running++
			next = cp
		} else {
			heapPush(&r.ready, cp)
		}
	}
	r.mu.Unlock()
	grant(next)
}

// blockedCount reports how many processors had not finished when the
// deadlock verdict was reached (for the DeadlockError diagnostic). The
// poisoned unwind is sequential (one granted slot), so the count each
// poisoned processor reports is deterministic.
func (r *coopRun) blockedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live
}

// --- the ready heap: a min-heap by (readyKey, tie, id) ---------------------

func coopLess(a, b *coopProc) bool {
	if a.readyKey != b.readyKey {
		return a.readyKey < b.readyKey
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.p.id < b.p.id
}

func heapPush(h *[]*coopProc, cp *coopProc) {
	heap := append(*h, cp)
	*h = heap
	i := len(heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !coopLess(heap[i], heap[parent]) {
			break
		}
		heap[i], heap[parent] = heap[parent], heap[i]
		i = parent
	}
}

func heapPop(h *[]*coopProc) *coopProc {
	heap := *h
	n := len(heap)
	if n == 0 {
		return nil
	}
	top := heap[0]
	last := heap[n-1]
	heap[n-1] = nil
	heap = heap[:n-1]
	*h = heap
	if n > 1 {
		heap[0] = last
		i := 0
		for {
			l, rt := 2*i+1, 2*i+2
			small := i
			if l < n-1 && coopLess(heap[l], heap[small]) {
				small = l
			}
			if rt < n-1 && coopLess(heap[rt], heap[small]) {
				small = rt
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	return top
}
