package serve

// HoldJobsUntilClose makes s's pool workers wait, before they run each job
// dequeued from now on, until Close has begun. A job submitted after the
// call is therefore neither done when a client attaches to it nor when the
// server starts closing, however fast the host runs it. A held worker waits
// on the pool's condition variable: a Submit signal it takes instead of an
// idle worker delays nothing, since every job waits for Close's broadcast.
func (s *Server) HoldJobsUntilClose() {
	p := s.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	run := p.run
	p.run = func(j *Job) {
		p.mu.Lock()
		for !p.closed {
			p.cond.Wait()
		}
		p.mu.Unlock()
		run(j)
	}
}
