package machine

import (
	"fmt"
	"strings"
)

// This file defines the machine layer's fault-injection hook points and the
// typed failures a chaotic run can surface. The machine knows nothing about
// probabilities or seeds: a FaultPlan (implemented by internal/fault) is
// consulted at well-defined points with purely virtual-time/topology inputs,
// so the same plan produces byte-identical perturbations under every engine
// and host parallelism level.
//
// The injected faults model a *reliable* transport: a "dropped" message is
// retransmitted below the application (bounded retries, each adding backoff
// latency), and a duplicated message is delivered twice but filtered at the
// receive path. Consequently chaos without processor death never changes
// program results — only virtual timing — while death surfaces as typed
// errors (ProcDeathError at the dying processor, DeadSenderError at every
// processor left waiting on it), never as a hang.

// MessageFault describes the perturbations applied to a single message on
// the send path. The zero value is a healthy message.
type MessageFault struct {
	// Delay is extra wire latency in virtual seconds added on top of the
	// alpha + bytes*beta (+ hops) cost: jitter, congestion, and the backoff
	// of any modeled retransmissions.
	Delay float64
	// Retries is the number of transport-level retransmissions the message
	// needed before delivery ("drops" of a reliable link). Each is recorded
	// as an EvRetry marker; the latency they cost is part of Delay.
	Retries int
	// Duplicate delivers a second, transport-level copy of the message. The
	// receive path detects and discards it (recording an EvFault marker), so
	// duplication perturbs the queue and exercises filtering, never results.
	Duplicate bool
}

// FaultPlan decides the perturbations of a run. Implementations must be
// deterministic pure functions of their inputs (plus the plan's own seed):
// they are consulted from processor goroutines concurrently and in
// host-schedule-dependent order, and the simulation's results must not
// depend on either.
type FaultPlan interface {
	// MessageFault returns the perturbation for the seq-th message (0-based,
	// counted per ordered (src,dst) pair in sender program order).
	MessageFault(src, dst int, seq int64) MessageFault
	// ProcFaults enumerates the per-processor faults of a machine of n
	// processors: visit is called — in any order, from the Run goroutine
	// only — for each processor the plan slows or kills, so a plan with
	// neither class makes Run's fault pre-scan O(1) instead of O(P).
	//
	// slow is the compute-slowdown multiplier (<= 1 means none). It scales
	// all local time: compute, copies, IO, and send injection overhead — but
	// not wire time. deathAt is the virtual time at which the processor
	// fails (<= 0 means never); a dead processor panics with
	// *ProcDeathError at its first operation at or after that time.
	ProcFaults(n int, visit func(proc int, slow, deathAt float64))
}

// SetFaults installs a fault plan; it must be called before Run. A nil plan
// (the default) disables fault injection; the healthy hot path then costs
// one pointer test per operation and allocates nothing.
func (m *Machine) SetFaults(f FaultPlan) { m.faults = f }

// Faults returns the installed fault plan (nil when chaos is off).
func (m *Machine) Faults() FaultPlan { return m.faults }

// Labels of EvFault markers recorded by the machine layer.
const (
	// FaultDelay marks a message that left with injected extra latency.
	FaultDelay = "delay"
	// FaultDup marks the send of a transport-level duplicate.
	FaultDup = "dup"
	// FaultDupDrop marks a duplicate detected and discarded at the receiver.
	FaultDupDrop = "dup-drop"
	// FaultSlow marks a processor that runs with a slowdown factor (recorded
	// once, at virtual time 0).
	FaultSlow = "slow"
	// FaultDeath marks the instant a processor dies.
	FaultDeath = "death"
)

// ProcDeathError is the panic value of a processor killed by the fault plan.
type ProcDeathError struct {
	Proc int
	// At is the virtual time of death: the processor's clock at the first
	// operation at or after the plan's death time.
	At float64
}

func (e *ProcDeathError) Error() string {
	return fmt.Sprintf("machine: processor %d died at virtual time %g (fault plan)", e.Proc, e.At)
}

// DeadSenderError is the panic value of a receive that can never complete:
// the sender terminated — died, panicked, or exited — with nothing from it
// queued. It is how failure propagates: each processor blocked on a dead one
// fails in turn, so a chaotic run unwinds instead of hanging.
type DeadSenderError struct {
	// Proc is the receiving processor; Src the terminated sender.
	Proc, Src int
	// At is the receiver's clock when it gave up.
	At float64
	// SrcPanicked reports whether the sender terminated by panic (death or
	// program error) rather than by returning normally.
	SrcPanicked bool
	// SrcExitAt is the sender's clock when it terminated.
	SrcExitAt float64
}

func (e *DeadSenderError) Error() string {
	how := "exited"
	if e.SrcPanicked {
		how = "failed"
	}
	return fmt.Sprintf("machine: processor %d blocked on receive from %d, which %s at virtual time %g without sending",
		e.Proc, e.Src, how, e.SrcExitAt)
}

// DeadlockError is the panic value of every processor parked when the coop
// engine detects the all-blocked state: no processor is runnable and at
// least one is still waiting on a receive.
type DeadlockError struct {
	// Proc is the processor reporting, blocked on a receive from Src.
	Proc, Src int
	// Blocked is the number of processors that had not finished.
	Blocked int
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("machine: deadlock: processor %d blocked on receive from %d with no runnable sender (%d processor(s) blocked)",
		e.Proc, e.Src, e.Blocked)
}

// ProcPanic is one processor's captured panic value.
type ProcPanic struct {
	Proc  int
	Value any
}

// RunError is the panic value of Machine.Run when one or more processors
// panicked. It aggregates every captured panic and identifies the root
// cause: failure cascades (a death makes its receivers fail, whose receivers
// fail in turn) are demoted below the panic that started them.
type RunError struct {
	// Panics lists every processor panic in ascending processor order.
	Panics []ProcPanic
}

// panicRank orders panic values by how causal they are: an application panic
// or injected death is a root cause; deadlock verdicts and dead-sender
// cascades are consequences.
func panicRank(v any) int {
	switch v.(type) {
	case *ProcDeathError:
		return 1
	case *DeadlockError:
		return 2
	case *DeadSenderError:
		return 3
	}
	return 0
}

// Root returns the most causal processor panic: lowest rank class, then
// lowest processor id. Deterministic for a deterministic set of panics.
func (e *RunError) Root() ProcPanic {
	best := e.Panics[0]
	for _, p := range e.Panics[1:] {
		if panicRank(p.Value) < panicRank(best.Value) {
			best = p
		}
	}
	return best
}

func (e *RunError) Error() string {
	root := e.Root()
	var b strings.Builder
	fmt.Fprintf(&b, "machine: processor %d panicked: %v", root.Proc, root.Value)
	if n := len(e.Panics) - 1; n > 0 {
		fmt.Fprintf(&b, " (and %d more processor(s) failed)", n)
	}
	return b.String()
}

// Unwrap exposes every panic value that is itself an error, so errors.As
// finds *ProcDeathError, *DeadSenderError, or *DeadlockError through a
// recovered RunError.
func (e *RunError) Unwrap() []error {
	var errs []error
	for _, p := range e.Panics {
		if err, ok := p.Value.(error); ok {
			errs = append(errs, err)
		}
	}
	return errs
}

// Termination states of a processor within one Run, kept per-machine so
// receivers can distinguish "no message yet" from "never coming".
const (
	termRunning uint32 = iota
	termExited
	termPanicked
)

// terminated reports whether processor src's SPMD body has returned or
// panicked in the current Run.
func (m *Machine) terminated(src int) bool { return m.term[src].Load() != termRunning }

// senderFate returns how src terminated (termExited or termPanicked) and its
// clock at termination. Only meaningful after terminated(src) is true (the
// atomic load in terminated orders the termAt read).
func (m *Machine) senderFate(src int) (uint32, float64) {
	return m.term[src].Load(), m.termAt[src]
}
