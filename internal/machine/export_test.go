package machine

// Probes returns how many queued messages p's receives have compared.
func (p *Proc) Probes() int64 { return p.probes }

// Elapse advances the clock by an explicit number of virtual seconds,
// counted as busy time. Applications use it for phases whose cost is modeled
// rather than counted in flops (e.g. table lookups, I/O post-processing).
func (p *Proc) Elapse(seconds float64) {
	if seconds < 0 {
		panic("machine: Elapse with negative duration")
	}
	p.checkAlive()
	seconds = p.scale(seconds)
	p.trace(EvCompute, seconds)
	p.clock += seconds
	p.busy += seconds
}

// TryRecv receives a message from src if one has already been deposited.
// Used by tests; SPMD programs use Recv. It performs the same post-receive
// bookkeeping as Recv, so traced programs using it still emit the
// EvWait/EvRecv markers trace analysis matches against EvSend events.
func (p *Proc) TryRecv(src int) (Message, bool) {
	p.checkAlive()
	for {
		msg, ok := p.tryGet(src)
		if !ok {
			return Message{}, false
		}
		if msg.Dup {
			p.dropDup(src, msg)
			continue
		}
		p.finishRecv(src, msg)
		return msg, true
	}
}

// HasWake reports whether p has made its wake channel, which it does on its
// first park.
func (p *Proc) HasWake() bool { return p.wake != nil }
