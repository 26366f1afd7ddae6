// Package cas is the content-addressed store behind the repo's two value
// caches, the cost tables of internal/mapping and the skeletons of
// internal/skeleton: immutable values named by their content key, computed at
// most once. A lookup tries memory, then the file
// <dir>/<prefix><fnv64a(key)>.json, where any failure — no file, bad bytes,
// another key, a value the caller's check refuses — is a miss; concurrent
// misses on one key share one computation; writes are best-effort and atomic
// (internal/fsatomic), so processes sharing a directory only see whole files.
package cas

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fxpar/internal/fsatomic"
)

// Source says where a lookup found (or produced) a value.
type Source int

const (
	// SourceComputed: the value was computed by this call.
	SourceComputed Source = iota
	// SourceMemory: in-process hit, or another caller's computation joined.
	SourceMemory
	// SourceDisk: on-disk hit.
	SourceDisk
)

func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Stats counts successful lookups by source.
type Stats struct {
	Memory   int64 // in-process hits, joined computations included
	Disk     int64 // on-disk hits
	Computed int64 // misses resolved by a computation
}

// Codec is the on-disk format of one kind of value.
type Codec[V any] struct {
	// Prefix starts every file name of the kind ("fxtab-", "fxskel-").
	Prefix string
	// Encode renders v, filed under key, as the whole file.
	Encode func(key string, v V) ([]byte, error)
	// Decode parses a whole file and returns the key it says it holds.
	Decode func(data []byte) (key string, v V, err error)
}

// Store is a content-addressed cache of one kind of value. Each call names
// its directory ("" keeps it in memory). Safe for concurrent use.
type Store[V any] struct {
	codec Codec[V]
	mem   sync.Map // key string -> V

	mu     sync.Mutex
	flight map[string]*call[V]

	memory, disk, computed atomic.Int64
}

// call is one in-flight computation; done closes when its leader returns.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errAbandoned is what joiners see when the leader's computation panicked.
var errAbandoned = errors.New("cas: computation panicked")

// New returns an empty store for the kind c describes.
func New[V any](c Codec[V]) *Store[V] {
	return &Store[V]{codec: c, flight: map[string]*call[V]{}}
}

func (s *Store[V]) path(dir, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(dir, fmt.Sprintf("%s%016x.json", s.codec.Prefix, h.Sum64()))
}

// Get looks key up in memory, then in dir, where check vets the decoded
// value. A disk hit is promoted to memory.
func (s *Store[V]) Get(dir, key string, check func(V) error) (V, Source, bool) {
	if v, ok := s.mem.Load(key); ok {
		s.memory.Add(1)
		return v.(V), SourceMemory, true
	}
	var zero V
	if dir == "" {
		return zero, SourceComputed, false
	}
	data, err := os.ReadFile(s.path(dir, key))
	if err != nil {
		return zero, SourceComputed, false
	}
	k, v, err := s.codec.Decode(data)
	if err != nil || k != key || check(v) != nil {
		return zero, SourceComputed, false
	}
	s.mem.Store(key, v)
	s.disk.Add(1)
	return v, SourceDisk, true
}

// Put files v under key: in memory always, in dir best-effort (a failed
// encode or write never fails the caller). A value check refuses is not
// stored and its error returned.
func (s *Store[V]) Put(dir, key string, v V, check func(V) error) error {
	if err := check(v); err != nil {
		return err
	}
	s.mem.Store(key, v)
	if dir != "" {
		if data, err := s.codec.Encode(key, v); err == nil {
			_ = fsatomic.WriteFile(s.path(dir, key), data)
		}
	}
	return nil
}

// GetOrCompute returns key's value, running compute on a miss and storing its
// result (see Put). Concurrent misses on one key run compute once: the others
// wait for the leader and report SourceMemory, or its error. A failed
// computation is not stored, so a later call computes afresh.
func (s *Store[V]) GetOrCompute(dir, key string, check func(V) error, compute func() (V, error)) (V, Source, error) {
	if v, src, ok := s.Get(dir, key, check); ok {
		return v, src, nil
	}
	s.mu.Lock()
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return c.v, SourceComputed, c.err
		}
		s.memory.Add(1)
		return c.v, SourceMemory, nil
	}
	c := &call[V]{done: make(chan struct{}), err: errAbandoned}
	s.flight[key] = c
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		close(c.done)
	}()

	// An earlier leader may have stored the value since the miss above.
	if v, ok := s.mem.Load(key); ok {
		s.memory.Add(1)
		c.v, c.err = v.(V), nil
		return c.v, SourceMemory, nil
	}
	v, err := compute()
	if err == nil {
		err = s.Put(dir, key, v, check)
	}
	if c.err = err; err != nil {
		return c.v, SourceComputed, err
	}
	s.computed.Add(1)
	c.v = v
	return v, SourceComputed, nil
}

// Stats snapshots the lookup counters.
func (s *Store[V]) Stats() Stats {
	return Stats{Memory: s.memory.Load(), Disk: s.disk.Load(), Computed: s.computed.Load()}
}

// Forget empties the memory tier; the counters and directories stay.
func (s *Store[V]) Forget() {
	s.mem.Range(func(k, _ any) bool {
		s.mem.Delete(k)
		return true
	})
}
