package streams

import (
	"sync"
	"testing"

	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
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
		runModules(p, Uniform(3, 2), 0, func(p *fx.Proc, mod int) {
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

func TestInvalidArgsPanic(t *testing.T) {
	cases := [][]int{
		{},        // no modules
		{3, 2},    // uses 5 of 4
		{2, 2, 2}, // uses 6 of 4
		{0, 2},    // non-positive size
		{-1},      // non-positive size
	}
	for _, sizes := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sizes=%v accepted", sizes)
				}
			}()
			checkModules(sizes, 4)
		}()
	}
}

func TestUniform(t *testing.T) {
	got := Uniform(3, 2)
	if len(got) != 3 || got[0] != 2 || got[2] != 2 {
		t.Errorf("Uniform(3,2) = %v", got)
	}
}
