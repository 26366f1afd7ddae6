package serve

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"fxpar/internal/sweep"
)

// JobState is a job's position in its lifecycle.
type JobState int

const (
	// JobQueued: admitted, waiting for a pool worker.
	JobQueued JobState = iota
	// JobRunning: a worker is executing the campaign.
	JobRunning
	// JobDone: finished successfully; Result holds the canonical bytes.
	JobDone
	// JobFailed: finished with an error.
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one deduplicated campaign: every request whose content key matches
// an existing job attaches to it instead of scheduling a second campaign,
// and all of them are answered from the same canonical result bytes — the
// singleflight that makes K identical concurrent requests cost one campaign
// and return byte-identical responses.
type Job struct {
	// ID is derived from the content key (stable across requests and
	// processes for the same request content).
	ID string
	// Kind is the request family: "optimize", "measure" or "chaossweep".
	Kind string
	// Key is the full content key the job dedupes on.
	Key string
	// Client is the submitting client's self-reported ID (fairness bucket).
	Client string
	// Priority orders dispatch: higher runs first (see Pool).
	Priority int

	// seq is the admission order, for FIFO within one client+priority.
	seq uint64
	// run executes the campaign; set by the handler that created the job.
	run func() ([]byte, error)

	// Changes wakes the job's /events streams on every state change.
	sweep.Changes

	mu     sync.Mutex
	state  JobState
	errMsg string
	result []byte

	// dedup counts requests beyond the first that attached to this job.
	dedup atomic.Int64
	// done closes when the job reaches JobDone or JobFailed.
	done chan struct{}
}

// JobSnapshot is the wire rendering of a job's state (see GET /jobs).
type JobSnapshot struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Key      string `json:"key"`
	Client   string `json:"client,omitempty"`
	Priority int    `json:"priority,omitempty"`
	State    string `json:"state"`
	Dedup    int64  `json:"dedup"`
	Error    string `json:"error,omitempty"`
}

// Snapshot renders the job's current state.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobSnapshot{
		ID: j.ID, Kind: j.Kind, Key: j.Key,
		Client: j.Client, Priority: j.Priority,
		State: j.state.String(), Dedup: j.dedup.Load(), Error: j.errMsg,
	}
}

// Done exposes the completion channel: closed once the job is done or failed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the terminal state: the canonical result bytes on success,
// or the error message. Valid only after Done() is closed.
func (j *Job) Result() (state JobState, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.errMsg
}

// setRunning flips the job to JobRunning (worker pickup).
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
	j.Notify()
}

// finish records the campaign outcome and wakes every waiter and subscriber.
func (j *Job) finish(result []byte, err error) {
	j.mu.Lock()
	if err != nil {
		j.state, j.errMsg = JobFailed, err.Error()
	} else {
		j.state, j.result = JobDone, result
	}
	j.mu.Unlock()
	j.Notify()
	close(j.done)
}

// jobID derives the stable job ID from the content key.
func jobID(kind, key string) string {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{'|'})
	h.Write([]byte(key))
	return fmt.Sprintf("j-%016x", h.Sum64())
}

// registry holds every live job, keyed by content for dedupe and by ID for
// lookup. Completed jobs are retained (serving cached byte-identical
// responses to late duplicates) up to keep, then pruned oldest-first.
type registry struct {
	mu    sync.Mutex
	byKey map[string]*Job
	byID  map[string]*Job
	order []*Job // admission order, for listing and pruning
	keep  int
	seq   uint64

	dedupHits atomic.Int64 // requests answered by attaching to an existing job
	campaigns atomic.Int64 // jobs actually created (campaigns scheduled)
}

func newRegistry(keep int) *registry {
	if keep <= 0 {
		keep = 1024
	}
	return &registry{byKey: make(map[string]*Job), byID: make(map[string]*Job), keep: keep}
}

// getOrCreate returns the job for (kind, key), creating it if absent.
// created reports whether the caller owns scheduling it (exactly one caller
// per key sees true — the singleflight invariant).
func (r *registry) getOrCreate(kind, key, client string, priority int) (j *Job, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.byKey[key]; ok {
		j.dedup.Add(1)
		r.dedupHits.Add(1)
		return j, false
	}
	r.seq++
	j = &Job{
		ID: jobID(kind, key), Kind: kind, Key: key,
		Client: client, Priority: priority,
		seq: r.seq, done: make(chan struct{}),
	}
	// An FNV collision across distinct keys is astronomically unlikely;
	// disambiguate rather than silently shadowing the older job.
	for r.byID[j.ID] != nil {
		j.ID = fmt.Sprintf("%s-%d", j.ID, r.seq)
	}
	r.byKey[key] = j
	r.byID[j.ID] = j
	r.order = append(r.order, j)
	r.campaigns.Add(1)
	r.pruneLocked()
	return j, true
}

// get looks a job up by ID.
func (r *registry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// snapshots lists every retained job in admission order.
func (r *registry) snapshots() []JobSnapshot {
	r.mu.Lock()
	jobs := append([]*Job(nil), r.order...)
	r.mu.Unlock()
	out := make([]JobSnapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// counts tallies retained jobs by state.
func (r *registry) counts() (queued, running, done, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.order {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		case JobDone:
			done++
		case JobFailed:
			failed++
		}
	}
	return
}

// pruneLocked evicts the oldest finished jobs while more than keep are
// retained. Queued and running jobs are never evicted — they have waiters.
func (r *registry) pruneLocked() {
	if len(r.order) <= r.keep {
		return
	}
	kept := r.order[:0]
	excess := len(r.order) - r.keep
	for _, j := range r.order {
		j.mu.Lock()
		finished := j.state == JobDone || j.state == JobFailed
		j.mu.Unlock()
		if excess > 0 && finished {
			delete(r.byKey, j.Key)
			delete(r.byID, j.ID)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	r.order = kept
}
