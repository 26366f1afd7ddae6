package fx

import (
	"math"
	"sync"
	"testing"

	"fxpar/internal/dist"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

func testMachine(n int) *machine.Machine {
	return machine.New(n, sim.CostModel{
		FlopRate: 1e6, Alpha: 1e-4, Beta: 1e-7, SendOverhead: 1e-5, IORate: 1e6,
	})
}

func TestRunWorldGroup(t *testing.T) {
	m := testMachine(6)
	Run(m, func(p *Proc) {
		if p.NumberOfProcessors() != 6 {
			t.Errorf("NP = %d", p.NumberOfProcessors())
		}
		if p.VP() != p.ID() {
			t.Errorf("VP %d != ID %d at top level", p.VP(), p.ID())
		}
		if p.Depth() != 1 {
			t.Errorf("depth = %d", p.Depth())
		}
	})
}

func TestTaskRegionOnSubgroup(t *testing.T) {
	m := testMachine(8)
	var mu sync.Mutex
	ranSome := map[int]bool{}
	ranMany := map[int]bool{}
	ranParent := map[int]bool{}
	Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("some", 3), group.Sub("many", 5))
		p.TaskRegion(part, func(r *Region) {
			r.On("some", func() {
				if p.NumberOfProcessors() != 3 {
					t.Errorf("NP inside some = %d", p.NumberOfProcessors())
				}
				if p.Depth() != 2 {
					t.Errorf("depth inside On = %d", p.Depth())
				}
				mu.Lock()
				ranSome[p.ID()] = true
				mu.Unlock()
			})
			mu.Lock()
			ranParent[p.ID()] = true
			mu.Unlock()
			r.On("many", func() {
				if p.NumberOfProcessors() != 5 {
					t.Errorf("NP inside many = %d", p.NumberOfProcessors())
				}
				mu.Lock()
				ranMany[p.ID()] = true
				mu.Unlock()
			})
		})
		if p.Depth() != 1 {
			t.Errorf("depth after region = %d", p.Depth())
		}
	})
	if len(ranSome) != 3 || len(ranMany) != 5 || len(ranParent) != 8 {
		t.Errorf("participation: some=%d many=%d parent=%d", len(ranSome), len(ranMany), len(ranParent))
	}
	for id := range ranSome {
		if ranMany[id] {
			t.Errorf("proc %d ran both subgroups", id)
		}
	}
}

func TestMySubgroupAndOnAny(t *testing.T) {
	m := testMachine(4)
	var mu sync.Mutex
	counts := map[string]int{}
	Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("a", 1), group.Sub("b", 3))
		p.TaskRegion(part, func(r *Region) {
			name := r.MySubgroup()
			r.OnAny(map[string]func(){
				"a": func() {
					if name != "a" {
						t.Errorf("proc %d: MySubgroup %q but ran a", p.ID(), name)
					}
					mu.Lock()
					counts["a"]++
					mu.Unlock()
				},
				"b": func() {
					mu.Lock()
					counts["b"]++
					mu.Unlock()
				},
			})
		})
	})
	if counts["a"] != 1 || counts["b"] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

func TestDynamicNestedPartition(t *testing.T) {
	// Recursive halving down to single processors, like quicksort.
	m := testMachine(8)
	var mu sync.Mutex
	leaves := map[int]int{}
	var recurse func(p *Proc, depth int)
	recurse = func(p *Proc, depth int) {
		np := p.NumberOfProcessors()
		if np == 1 {
			mu.Lock()
			leaves[p.ID()] = depth
			mu.Unlock()
			return
		}
		part := p.Partition(group.Sub("lo", np/2), group.Sub("hi", np-np/2))
		p.TaskRegion(part, func(r *Region) {
			r.On("lo", func() { recurse(p, depth+1) })
			r.On("hi", func() { recurse(p, depth+1) })
		})
	}
	Run(m, func(p *Proc) { recurse(p, 0) })
	if len(leaves) != 8 {
		t.Fatalf("leaves = %v", leaves)
	}
	for id, d := range leaves {
		if d != 3 {
			t.Errorf("proc %d reached depth %d, want 3", id, d)
		}
	}
}

func TestLexicalNestingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lexically nested task region")
		}
	}()
	m := testMachine(4)
	Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("a", 2), group.Sub("b", 2))
		p.TaskRegion(part, func(r *Region) {
			part2 := p.Partition(group.Sub("x", 2), group.Sub("y", 2))
			p.TaskRegion(part2, func(*Region) {}) // lexical nesting: illegal
		})
	})
}

func TestPartitionWrongGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(4)
	Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("a", 2), group.Sub("b", 2))
		p.TaskRegion(part, func(r *Region) {
			r.On("a", func() {
				// part partitions the world, not subgroup a.
				p.TaskRegion(part, func(*Region) {})
			})
		})
	})
}

func TestOnProcs(t *testing.T) {
	m := testMachine(6)
	var mu sync.Mutex
	ran := map[int]bool{}
	Run(m, func(p *Proc) {
		p.OnProcs(2, 5, func() {
			if p.NumberOfProcessors() != 3 {
				t.Errorf("NP = %d", p.NumberOfProcessors())
			}
			mu.Lock()
			ran[p.ID()] = true
			mu.Unlock()
		})
	})
	if len(ran) != 3 || !ran[2] || !ran[3] || !ran[4] {
		t.Errorf("ran = %v", ran)
	}
}

func TestOnProcsInvalidRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(2)
	Run(m, func(p *Proc) { p.OnProcs(1, 1, func() {}) })
}

func TestBarrierOnSubgroupDoesNotBlockOthers(t *testing.T) {
	// Subgroup "slow" computes and barriers internally; subgroup "fast"
	// must finish with a small clock (it never waits for slow).
	m := testMachine(4)
	stats := Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("slow", 2), group.Sub("fast", 2))
		p.TaskRegion(part, func(r *Region) {
			r.On("slow", func() {
				p.Compute(1e6) // 1 virtual second
				p.Barrier()
			})
			r.On("fast", func() {
				p.Compute(10)
				p.Barrier()
			})
		})
	})
	for _, ps := range stats.Procs[2:4] {
		if ps.Finish > 0.01 {
			t.Errorf("fast proc %d finished at %g, was blocked by slow subgroup", ps.ID, ps.Finish)
		}
	}
}

func TestPipelineOverlap(t *testing.T) {
	// Two-stage pipeline over disjoint subgroups exchanging arrays: with
	// minimal-subset assignment the makespan is ~m*stageTime + fill, not
	// ~2*m*stageTime. Each stage costs 0.1 virtual seconds per data set.
	const mSets = 10
	const stageFlops = 1e5 // 0.1 s at 1 MFLOP/s
	m := testMachine(2)
	stats := Run(m, func(p *Proc) {
		g1 := group.MustNew([]int{0})
		g2 := group.MustNew([]int{1})
		a := dist.New[float64](p.Proc, dist.RowBlock2D(g1, 4, 4))
		b := dist.New[float64](p.Proc, dist.RowBlock2D(g2, 4, 4))
		part := p.Partition(group.Sub("s1", 1), group.Sub("s2", 1))
		p.TaskRegion(part, func(r *Region) {
			for i := 0; i < mSets; i++ {
				r.On("s1", func() { p.Compute(stageFlops) })
				dist.Assign(p.Proc, b, a)
				r.On("s2", func() { p.Compute(stageFlops) })
			}
		})
	})
	makespan := stats.MakespanTime()
	perStage := 0.1
	serial := 2 * mSets * perStage
	pipelined := (mSets + 1) * perStage
	if makespan > serial*0.75 {
		t.Errorf("makespan %.3f ~ serial %.3f: pipeline did not overlap", makespan, serial)
	}
	if makespan < pipelined*0.9 {
		t.Errorf("makespan %.3f below pipelined bound %.3f: clock accounting broken", makespan, pipelined)
	}
}

func TestReplicatedScalarNoCommunication(t *testing.T) {
	// Loop control on replicated scalars must not communicate (Section 4).
	m := testMachine(4)
	stats := Run(m, func(p *Proc) {
		sum := 0
		for i := 0; i < 100; i++ {
			sum += i
		}
		if sum != 4950 {
			t.Errorf("replicated computation wrong: %d", sum)
		}
	})
	for _, ps := range stats.Procs {
		if ps.MsgsSent != 0 {
			t.Errorf("proc %d sent %d messages for replicated scalar code", ps.ID, ps.MsgsSent)
		}
	}
}

func TestBcastValAllReduce(t *testing.T) {
	m := testMachine(5)
	Run(m, func(p *Proc) {
		v := BcastVal(p, 2, p.VP()*10)
		if v != 20 {
			t.Errorf("BcastVal = %d", v)
		}
		s := AllReduce(p, 1, func(a, b int) int { return a + b })
		if s != 5 {
			t.Errorf("AllReduce = %d", s)
		}
	})
}

func TestVarAccessRules(t *testing.T) {
	m := testMachine(4)
	Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("a", 2), group.Sub("b", 2))
		av := NewVar[float64](p, part.Group("a"))
		p.TaskRegion(part, func(r *Region) {
			r.On("a", func() {
				av.Set(3.5) // subgroup scope: legal
				if av.Get() != 3.5 {
					t.Error("Var lost value")
				}
			})
			// Parent scope: owner members may access (owner contained in
			// current group).
			if part.Group("a").Contains(p.ID()) {
				_ = av.Get()
			}
		})
	})
}

func TestVarNonMemberPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(4)
	Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("a", 2), group.Sub("b", 2))
		av := NewVar[int](p, part.Group("a"))
		p.TaskRegion(part, func(r *Region) {
			r.On("b", func() {
				av.Set(1) // b members do not own av
			})
		})
	})
}

func TestVarUnrelatedGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := testMachine(4)
	Run(m, func(p *Proc) {
		part := p.Partition(group.Sub("a", 2), group.Sub("b", 2))
		// Variable owned by {0,2}: overlaps both subgroups, related to
		// neither.
		weird := NewVar[int](p, group.MustNew([]int{0, 2}))
		p.TaskRegion(part, func(r *Region) {
			r.On("a", func() {
				if p.ID() == 0 {
					weird.Set(1)
				}
			})
		})
	})
}

func TestUnbalancedStackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbalanced mapping stack")
		}
	}()
	m := testMachine(2)
	Run(m, func(p *Proc) {
		p.push(group.MustNew([]int{p.ID()}))
	})
}

func TestFigure1ParallelSections(t *testing.T) {
	// The structure of Figure 1: proca on Agroup and procb on Bgroup run
	// independently for m iterations, exchanging boundary data through a
	// parent-scope transfer. Verifies values flow between subgroups.
	const iters = 3
	m := testMachine(4)
	Run(m, func(p *Proc) {
		gA := group.MustNew([]int{0, 1})
		gB := group.MustNew([]int{2, 3})
		a := dist.New[float64](p.Proc, dist.RowBlock2D(gA, 4, 4))
		b := dist.New[float64](p.Proc, dist.RowBlock2D(gB, 4, 4))
		if a.IsMember() {
			a.FillFunc(func(idx []int) float64 { return 1 })
		}
		part := p.Partition(group.Sub("Agroup", 2), group.Sub("Bgroup", 2))
		p.TaskRegion(part, func(r *Region) {
			for i := 0; i < iters; i++ {
				r.On("Agroup", func() {
					for j, v := range a.Local() {
						a.Local()[j] = v + 1
					}
					p.Barrier()
				})
				// transfer: B gets A's data (parent scope).
				dist.Assign(p.Proc, b, a)
				r.On("Bgroup", func() {
					p.Barrier()
				})
			}
		})
		if b.IsMember() {
			want := 1.0 + iters
			for _, v := range b.Local() {
				if math.Abs(v-want) > 1e-12 {
					t.Errorf("proc %d: b = %v, want %v", p.ID(), v, want)
				}
			}
		}
	})
}

// TestRunAllocsFlatInP: fx.Run keeps every processor's state in one arena
// parallel to the machine's, so New plus an empty fx.Run on the goroutine
// engine allocates the same handful of objects at every P.
func TestRunAllocsFlatInP(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	for _, n := range []int{64, 1024, 4096} {
		allocs := testing.AllocsPerRun(50, func() {
			m := testMachine(n)
			m.SetEngine(machine.Goroutine())
			Run(m, func(*Proc) {})
		})
		t.Logf("P=%d: %.0f allocations", n, allocs)
		if allocs > 32 {
			t.Errorf("New(%d) plus an empty fx.Run performs %.0f allocations, want <= 32", n, allocs)
		}
	}
}
