package mapping_test

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

// TestEvalCountsCaptures: every cost-table cell reaches the skeleton store
// through its one fill path, so Stats().Captured counts the cells a cold
// build captured (it read 0 when Eval filled the store behind GetOrCapture's
// back), and a warm build on the same store captures nothing more.
func TestEvalCountsCaptures(t *testing.T) {
	dir := t.TempDir()
	store := skeleton.NewStore(dir)
	opt := mapping.BuildOptions{Workers: 2, Replay: &mapping.ReplayOptions{Store: store}}
	cfg := ffthist.Config{N: 32, Sets: 6, Bins: 64}
	const maxP = 8

	mapping.ResetTableMemo()
	if _, src, err := ffthist.MeasuredModel(sim.Paragon(), cfg, maxP, opt); err != nil || src != mapping.SourceComputed {
		t.Fatalf("cold build: source %v, err %v", src, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "fxskel-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	cold := store.Stats()
	if want := int64(3*maxP + maxP); cold.Captured != want || int64(len(files)) != want {
		t.Errorf("cold build: Captured = %d with %d files stored, want %d of each", cold.Captured, len(files), want)
	}

	mapping.ResetTableMemo()
	if _, _, err := ffthist.MeasuredModel(sim.Paragon(), cfg, maxP, opt); err != nil {
		t.Fatal(err)
	}
	warm := store.Stats()
	if warm.Captured != cold.Captured {
		t.Errorf("warm build captured again: %d -> %d", cold.Captured, warm.Captured)
	}
	if warm.Memory != cold.Memory+cold.Captured {
		t.Errorf("warm build: Memory hits %d -> %d, want one per stored cell (%d)", cold.Memory, warm.Memory, cold.Captured)
	}
}

// TestEvalSharesOneCapture: concurrent builds that need the same cell (two
// /optimize requests differing only in P) capture it once — the store's
// flight now has Eval as its caller — and a cell whose live value is not its
// skeleton's makespan is answered by the capture at the base model, then
// never captured again.
func TestEvalSharesOneCapture(t *testing.T) {
	cost := sim.Paragon()
	m := machine.New(4, cost)
	sink := skeleton.NewSink(cost, "")
	m.SetTracer(sink)
	ffthist.Run(m, ffthist.Config{N: 16, Sets: 1, Bins: 8}, mapping.DataParallel(4))
	sk, err := sink.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	r := &mapping.ReplayOptions{Store: skeleton.NewStore("")}

	const callers = 8
	var captures atomic.Int32
	started := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ok := r.Eval(skeleton.StoreKey{App: "t", P: 4}, cost, func(sim.CostModel) (*skeleton.Skeleton, float64, error) {
				captures.Add(1)
				<-started // hold the flight open until every caller is in
				return sk, sk.Makespan, nil
			})
			if !ok || v != sk.Makespan {
				t.Errorf("Eval = %v, %v; want %v, true", v, ok, sk.Makespan)
			}
		}()
	}
	close(started)
	wg.Wait()
	if captures.Load() != 1 || r.Store.Stats().Captured != 1 {
		t.Errorf("%d captures ran, store counts %d; want 1 and 1", captures.Load(), r.Store.Stats().Captured)
	}

	latency := func(sim.CostModel) (*skeleton.Skeleton, float64, error) {
		captures.Add(1)
		return sk, sk.Makespan / 2, nil
	}
	key := skeleton.StoreKey{App: "t.latency", P: 4}
	if v, ok := r.Eval(key, cost, latency); !ok || v != sk.Makespan/2 {
		t.Errorf("non-makespan cell at base = %v, %v; want the live value", v, ok)
	}
	if _, ok := r.Eval(key, cost, latency); ok || captures.Load() != 2 || r.Store.Stats().Captured != 1 {
		t.Errorf("non-makespan cell was replayed or re-captured (ok %v, %d captures, store %d)", ok, captures.Load(), r.Store.Stats().Captured)
	}
}
