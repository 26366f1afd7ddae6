package cas

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// file is the test kind's on-disk format: a string value beside its key.
type file struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

var testCodec = Codec[string]{
	Prefix: "fxtest-",
	Encode: func(key, v string) ([]byte, error) {
		data, err := json.Marshal(file{key, v})
		return append(data, '\n'), err
	},
	Decode: func(data []byte) (string, string, error) {
		var f file
		err := json.Unmarshal(data, &f)
		return f.Key, f.Val, err
	},
}

// check refuses the value "bad", standing in for a kind's shape or
// admissibility test.
func check(v string) error {
	if v == "bad" {
		return errors.New("refused")
	}
	return nil
}

// TestGetOrComputeSingleflight: concurrent misses on one key run one
// computation; every caller gets its value, exactly one reports
// SourceComputed, and each of the others counts one memory hit. The store has
// no directory: with one, a caller that misses memory just before the leader
// lands can read the leader's fresh file and rightly report a disk hit.
func TestGetOrComputeSingleflight(t *testing.T) {
	s := New(testCodec)
	dir := ""
	const callers = 8
	var computes atomic.Int64
	gate := make(chan struct{})
	launched := make(chan struct{}, callers)
	srcs := make([]Source, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			launched <- struct{}{}
			v, src, err := s.GetOrCompute(dir, "k", check, func() (string, error) {
				computes.Add(1)
				<-gate // hold the leader's computation open until all callers launched
				return "v", nil
			})
			if err != nil || v != "v" {
				t.Errorf("caller %d: %q, %v", i, v, err)
			}
			srcs[i] = src
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-launched
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	computed := 0
	for _, src := range srcs {
		if src == SourceComputed {
			computed++
		} else if src != SourceMemory {
			t.Errorf("caller reports %v", src)
		}
	}
	if computed != 1 {
		t.Errorf("%d callers report computed, want 1", computed)
	}
	if st := s.Stats(); st != (Stats{Memory: callers - 1, Computed: 1}) {
		t.Errorf("stats %+v, want %d memory and 1 computed", st, callers-1)
	}
}

// TestGetOrComputeError: a failed computation is not stored and frees its
// flight slot, a caller that joined it gets the leader's error, and so does a
// leader whose computation panicked.
func TestGetOrComputeError(t *testing.T) {
	s := New(testCodec)
	boom, late := errors.New("boom"), errors.New("late")
	joined := false
	// A joiner is only a joiner if it finds the flight before the leader
	// lands; retry until one does.
	for attempt := 0; attempt < 1000 && !joined; attempt++ {
		key := fmt.Sprint("k", attempt)
		computing, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, _, err := s.GetOrCompute("", key, check, func() (string, error) {
				close(computing)
				<-release
				return "", boom
			})
			leader <- err
		}()
		<-computing
		joiner := make(chan error, 1)
		go func() {
			v, src, err := s.GetOrCompute("", key, check, func() (string, error) { return "", late })
			if v != "" || src != SourceComputed {
				t.Errorf("failed lookup returned %q, %v", v, src)
			}
			joiner <- err
		}()
		runtime.Gosched()
		close(release)
		if err := <-leader; err != boom {
			t.Fatalf("leader err %v, want boom", err)
		}
		switch err := <-joiner; err {
		case boom:
			joined = true
		case late: // arrived after the leader landed and computed itself
		default:
			t.Fatalf("joiner err %v", err)
		}
	}
	if !joined {
		t.Fatal("no joiner ever found the leader's flight")
	}

	// Neither failure was stored, and the slot is free: a retry computes.
	if _, _, ok := s.Get("", "k0", check); ok {
		t.Error("failed computation was stored")
	}
	if v, src, err := s.GetOrCompute("", "k0", check, func() (string, error) { return "v", nil }); err != nil || src != SourceComputed || v != "v" {
		t.Errorf("retry after failure: %q, %v, %v", v, src, err)
	}

	// A value the check refuses fails the call and is not stored.
	if _, _, err := s.GetOrCompute("", "refused", check, func() (string, error) { return "bad", nil }); err == nil {
		t.Error("refused value did not fail the call")
	}
	if _, _, ok := s.Get("", "refused", check); ok {
		t.Error("refused value was stored")
	}

	// A panicking leader frees its slot too.
	func() {
		defer func() { _ = recover() }()
		s.GetOrCompute("", "panic", check, func() (string, error) { panic("cell") })
	}()
	if v, _, err := s.GetOrCompute("", "panic", check, func() (string, error) { return "v", nil }); err != nil || v != "v" {
		t.Errorf("after a panicking leader: %q, %v", v, err)
	}
}

// TestCorruptFileIsMiss: every disk-side failure — no file, unparsable
// bytes, another key's file, a value the check refuses — is a miss resolved
// by computing, and the computation repairs the file.
func TestCorruptFileIsMiss(t *testing.T) {
	for name, data := range map[string]string{
		"absent":    "",
		"garbage":   "{not json",
		"other key": `{"key":"other","val":"v"}`,
		"refused":   `{"key":"k","val":"bad"}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := New(testCodec)
			if data != "" {
				if err := os.WriteFile(s.path(dir, "k"), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, ok := s.Get(dir, "k", check); ok {
				t.Fatal("corrupt file served as a hit")
			}
			v, src, err := s.GetOrCompute(dir, "k", check, func() (string, error) { return "v", nil })
			if err != nil || src != SourceComputed || v != "v" {
				t.Fatalf("miss: %q, %v, %v", v, src, err)
			}
			if v, src, ok := New(testCodec).Get(dir, "k", check); !ok || src != SourceDisk || v != "v" {
				t.Fatalf("after repair: %q, %v, %v; want a disk hit", v, src, ok)
			}
		})
	}
}

// TestConcurrentWritersNeverTear hammers one key's file with writers from
// separate stores (the -j campaign scenario: many workers, one shared
// directory) while a reader polls: every read is a whole, verified file, and
// no temp file is left behind.
func TestConcurrentWritersNeverTear(t *testing.T) {
	dir := t.TempDir()
	const writers, rounds = 8, 50
	long := strings.Repeat("x", 64<<10) // big enough that a torn write would show
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := New(testCodec).Put(dir, "k", fmt.Sprint(w, long), check); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	seen := false
	for i := 0; i < writers*rounds; i++ {
		_, _, ok := New(testCodec).Get(dir, "k", check)
		if seen && !ok {
			t.Fatal("the file turned unreadable after a whole write: torn write")
		}
		seen = seen || ok
	}
	wg.Wait()
	if _, _, ok := New(testCodec).Get(dir, "k", check); !ok {
		t.Fatal("file unreadable after concurrent writes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Join(dir, entries[0].Name()) != New(testCodec).path(dir, "k") {
		t.Errorf("directory holds %v, want only the key's file", entries)
	}
}

// TestSourcesAndCounters: each successful lookup counts once, under the
// source it reports; misses and Puts count nothing; Forget empties memory
// only. File names are <prefix><fnv64a(key)>.json.
func TestSourcesAndCounters(t *testing.T) {
	dir := t.TempDir()
	s := New(testCodec)
	compute := func() (string, error) { return "v", nil }
	want := []Source{SourceComputed, SourceMemory, SourceDisk, SourceMemory}
	for i, w := range want {
		if i == 2 {
			s.Forget()
		}
		if _, src, err := s.GetOrCompute(dir, "k", check, compute); err != nil || src != w {
			t.Errorf("lookup %d: %v, %v; want %v", i, src, err, w)
		}
	}
	if _, _, ok := s.Get(dir, "absent", check); ok {
		t.Error("absent key hit")
	}
	if err := s.Put(dir, "put", "v", check); err != nil {
		t.Error(err)
	}
	if st := s.Stats(); st != (Stats{Memory: 2, Disk: 1, Computed: 1}) {
		t.Errorf("stats %+v, want 2 memory, 1 disk, 1 computed", st)
	}
	if got := filepath.Base(s.path(dir, "k")); got != "fxtest-af63e64c8601fd8a.json" {
		t.Errorf("file name %s", got)
	}
	for src, name := range map[Source]string{SourceComputed: "computed", SourceMemory: "memory", SourceDisk: "disk"} {
		if src.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(src), src, name)
		}
	}
}
