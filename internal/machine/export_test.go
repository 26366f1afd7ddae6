package machine

// Probes returns how many queued messages p's receives have compared.
func (p *Proc) Probes() int64 { return p.probes }
