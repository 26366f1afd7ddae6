package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

func TestMapReturnsResultsInSubmissionOrder(t *testing.T) {
	n := 100
	res := Map(8, n, func(i int) (int, error) { return i * i, nil })
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value != i*i {
			t.Errorf("result %d = %d, want %d", i, r.Value, i*i)
		}
	}
}

func TestMapCapturesPanicPerJob(t *testing.T) {
	res := Map(4, 10, func(i int) (string, error) {
		if i == 3 {
			panic("bad configuration")
		}
		if i == 7 {
			return "", errors.New("plain error")
		}
		return fmt.Sprintf("ok-%d", i), nil
	})
	for i, r := range res {
		switch i {
		case 3:
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job 3 error = %v, want *PanicError", r.Err)
			}
			if pe.Index != 3 || pe.Value != "bad configuration" {
				t.Errorf("panic error = %+v", pe)
			}
		case 7:
			if r.Err == nil || r.Err.Error() != "plain error" {
				t.Errorf("job 7 error = %v", r.Err)
			}
		default:
			if r.Err != nil || r.Value != fmt.Sprintf("ok-%d", i) {
				t.Errorf("job %d = %+v", i, r)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	Map(workers, 50, func(i int) (struct{}, error) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return struct{}{}, nil
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, cap is %d", p, workers)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestMapZeroJobs(t *testing.T) {
	res := Map[int](4, 0, func(i int) (int, error) { t.Fatal("fn called"); return 0, nil })
	if len(res) != 0 {
		t.Errorf("got %d results for zero jobs", len(res))
	}
}

// Values unwraps a fully successful campaign into its values. It returns
// the first error encountered (in submission order) if any job failed.
func Values[T any](results []Result[T]) ([]T, error) {
	out := make([]T, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("sweep: job %d: %w", i, r.Err)
		}
		out[i] = r.Value
	}
	return out, nil
}

func TestValues(t *testing.T) {
	good := Map(2, 3, func(i int) (int, error) { return i, nil })
	vals, err := Values(good)
	if err != nil || len(vals) != 3 || vals[2] != 2 {
		t.Errorf("Values = %v, %v", vals, err)
	}
	bad := Map(2, 3, func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if _, err := Values(bad); err == nil {
		t.Error("Values should surface the job error")
	}
}

// TestConcurrentSimulationsStayDeterministic is the campaign-level guarantee
// the whole package rests on: independent machine.Run simulations executed
// concurrently produce the same virtual times as the same simulations run
// serially, regardless of host scheduling.
func TestConcurrentSimulationsStayDeterministic(t *testing.T) {
	sim1 := func(procs int) float64 {
		m := machine.New(procs, sim.Paragon())
		st := m.Run(func(p *machine.Proc) {
			n := p.Machine().N()
			for round := 0; round < 10; round++ {
				p.Compute(float64(100 * (p.ID() + 1)))
				p.Send((p.ID()+1)%n, p.ID(), 8)
				p.Recv((p.ID() - 1 + n) % n)
			}
		})
		return st.MakespanTime()
	}
	procCounts := []int{1, 2, 4, 8, 16}
	serial := make([]float64, len(procCounts))
	for i, p := range procCounts {
		serial[i] = sim1(p)
	}
	res := Map(len(procCounts), len(procCounts), func(i int) (float64, error) {
		return sim1(procCounts[i]), nil
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value != serial[i] {
			t.Errorf("procs=%d: concurrent makespan %g != serial %g", procCounts[i], r.Value, serial[i])
		}
	}
}
