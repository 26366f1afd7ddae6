package machine

import (
	"fmt"

	"fxpar/internal/forkjoin"
)

// ProcStats is the summary of one processor after a run.
type ProcStats struct {
	ID        int
	Finish    float64 // final clock value
	Busy      float64
	Idle      float64
	MsgsSent  int64
	BytesSent int64
}

// RunStats summarizes a completed SPMD run.
type RunStats struct {
	Procs []ProcStats
}

// MakespanTime returns the maximum finishing virtual time over processors.
func (s RunStats) MakespanTime() float64 {
	max := 0.0
	for _, p := range s.Procs {
		if p.Finish > max {
			max = p.Finish
		}
	}
	return max
}

// Run executes fn as an SPMD program on the machine's execution engine
// (goroutine-per-processor by default; see SetEngine), each invocation
// receiving its own Proc. It returns per-processor statistics after all
// processors finish. A Machine may be Run only once; inboxes must be empty
// at exit (leftover messages indicate a protocol bug and cause a panic
// naming every undrained sender→receiver pair). If any processor panics —
// an application bug, a fault-plan death, or the resulting cascade of
// dead-sender failures — Run panics with a *RunError aggregating every
// processor's panic and naming the root cause.
func (m *Machine) Run(fn func(*Proc)) RunStats {
	// All P processor states live in one arena slice: one allocation instead
	// of P, initialized by a parallel fold instead of a serial O(P) loop.
	// Engines index into the arena directly and RunStats streams out of it
	// at the end, so no second O(P) pointer structure ever exists. A
	// processor allocates nothing else until it first parks (Proc.wait).
	procs := make([]Proc, m.n)
	forkjoin.For(m.n, initGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			procs[i].m = m
			procs[i].id = i
		}
	})
	m.applyProcFaults(procs)
	m.procs = procs
	var rec panicRecorder
	m.eng.run(m, procs, func(p *Proc) {
		// Mark termination — and wake every receiver blocked on this
		// processor — whether the body returns or panics; the re-panic
		// preserves the engine's per-processor capture. The ordering
		// matters under the coop engine: waiters must reach the ready
		// heap before the scheduler's finish step runs its all-blocked
		// (deadlock) check.
		defer func() {
			r := recover()
			m.termAt[p.id] = p.clock
			if r != nil {
				m.term[p.id].Store(termPanicked)
			} else {
				m.term[p.id].Store(termExited)
			}
			m.senderTerminated(p)
			if r != nil {
				panic(r)
			}
		}()
		if p.slow > 1 {
			p.marker(EvFault, -1, 0, FaultSlow)
		}
		fn(p)
		if len(p.spans) != 0 {
			panic(fmt.Sprintf("machine: processor %d finished with %d unclosed span(s), innermost %q",
				p.id, len(p.spans), p.spans[len(p.spans)-1]))
		}
	}, &rec)
	m.procs = nil
	if failed := rec.failed(); failed != nil {
		panic(&RunError{Panics: failed})
	}
	if msg := m.drainReport(); msg != "" {
		panic(msg)
	}
	return m.foldStats(procs)
}

// applyProcFaults sets the per-processor slowdown and death time of the
// processors the fault plan enumerates.
func (m *Machine) applyProcFaults(procs []Proc) {
	if m.faults == nil {
		return
	}
	m.faults.ProcFaults(m.n, func(i int, slow, deathAt float64) {
		if slow > 1 {
			procs[i].slow = slow
		}
		if deathAt > 0 {
			procs[i].deathAt = deathAt
		}
	})
}

// foldStats streams RunStats out of the proc arena with a parallel fold.
// Every element is index-addressed, so the result is byte-identical to the
// seed's serial copy loop.
func (m *Machine) foldStats(procs []Proc) RunStats {
	stats := RunStats{Procs: make([]ProcStats, m.n)}
	forkjoin.For(m.n, initGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := &procs[i]
			stats.Procs[i] = ProcStats{
				ID: i, Finish: p.clock, Busy: p.busy, Idle: p.idle,
				MsgsSent: p.sent, BytesSent: p.bytes,
			}
		}
	})
	return stats
}
