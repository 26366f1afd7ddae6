package streams

import (
	"strings"
	"sync"
	"testing"

	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
)

func testMachine(n int) *machine.Machine {
	return machine.New(n, sim.Paragon())
}

func TestSingleModuleNoPartition(t *testing.T) {
	m := testMachine(4)
	fx.Run(m, func(p *fx.Proc) {
		runModules(p, []int{4}, 0, func(p *fx.Proc, mod int) {
			if mod != 0 || p.NumberOfProcessors() != 4 || p.Depth() != 1 {
				t.Errorf("mod=%d np=%d depth=%d", mod, p.NumberOfProcessors(), p.Depth())
			}
		})
	})
}

func TestModulesSplitEvenly(t *testing.T) {
	m := testMachine(6)
	var mu sync.Mutex
	seen := map[int]int{}
	fx.Run(m, func(p *fx.Proc) {
		runModules(p, []int{2, 2, 2}, 0, func(p *fx.Proc, mod int) {
			if p.NumberOfProcessors() != 2 {
				t.Errorf("module %d np=%d", mod, p.NumberOfProcessors())
			}
			mu.Lock()
			seen[mod]++
			mu.Unlock()
		})
	})
	for mod := 0; mod < 3; mod++ {
		if seen[mod] != 2 {
			t.Errorf("module %d ran on %d procs", mod, seen[mod])
		}
	}
}

func TestIdleProcessorsSkip(t *testing.T) {
	m := testMachine(5)
	stats := fx.Run(m, func(p *fx.Proc) {
		runModules(p, []int{2, 2}, 1, func(p *fx.Proc, mod int) {
			p.Compute(1000)
		})
	})
	if stats.Procs[4].Finish != 0 {
		t.Errorf("idle processor advanced to %g", stats.Procs[4].Finish)
	}
}

func TestSingleModuleWithIdle(t *testing.T) {
	m := testMachine(5)
	var mu sync.Mutex
	ran := 0
	fx.Run(m, func(p *fx.Proc) {
		runModules(p, []int{3}, 2, func(p *fx.Proc, mod int) {
			if p.NumberOfProcessors() != 3 {
				t.Errorf("np = %d", p.NumberOfProcessors())
			}
			mu.Lock()
			ran++
			mu.Unlock()
		})
	})
	if ran != 3 {
		t.Errorf("ran on %d procs", ran)
	}
}

func TestUnevenModuleSizes(t *testing.T) {
	m := testMachine(7)
	var mu sync.Mutex
	seen := map[int]int{}
	fx.Run(m, func(p *fx.Proc) {
		runModules(p, []int{3, 2, 2}, 0, func(p *fx.Proc, mod int) {
			want := 2
			if mod == 0 {
				want = 3
			}
			if p.NumberOfProcessors() != want {
				t.Errorf("module %d np=%d, want %d", mod, p.NumberOfProcessors(), want)
			}
			mu.Lock()
			seen[mod]++
			mu.Unlock()
		})
	})
	if seen[0] != 3 || seen[1] != 2 || seen[2] != 2 {
		t.Errorf("module membership = %v", seen)
	}
}

// TestInvalidArgsPanic: Run rejects, before running anything, a mapping
// whose modules do not fit the machine.
func TestInvalidArgsPanic(t *testing.T) {
	pr := Program[int, int]{{Name: "s"}}
	cases := []mapping.Mapping{
		{}, // no modules
		{Modules: 2, Stages: []int{2}, WideModules: 1, WideStages: []int{3}}, // uses 5 of 4
		{Modules: 3, Stages: []int{2}},                                       // uses 6 of 4
		{Modules: 2, Stages: []int{2}, WideModules: 1, WideStages: []int{0}}, // non-positive size
		{Modules: 1, Stages: []int{-1}},                                      // non-positive size
	}
	for _, mp := range cases {
		func() {
			defer func() {
				if err, ok := recover().(error); !ok || !strings.HasPrefix(err.Error(), "test: ") {
					t.Errorf("%+v: Run panicked with %v, want the mapping check's error", mp, err)
				}
			}()
			pr.Run("test", testMachine(4), mp, 1, stats.NewStream())
		}()
	}
}
