// Integration tests exercising cross-package composition: heterogeneous
// applications co-scheduled in one SPMD program — the "single programming
// and compilation framework" advantage Section 6 claims over coordination-
// language approaches, where no such composition is expressible.
package fxpar_test

import (
	"slices"
	"sync"
	"testing"

	"fxpar/internal/apps/barneshut"
	"fxpar/internal/apps/qsort"
	"fxpar/internal/dist"
	"fxpar/internal/fft"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/hpf"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
	"fxpar/internal/trace"
)

// TestCoScheduledApplications runs a quicksort and an FFT workload on
// disjoint subgroups of one machine, in one program, and verifies both
// complete correctly and overlap in virtual time.
func TestCoScheduledApplications(t *testing.T) {
	m := machine.New(8, sim.Paragon())
	var mu sync.Mutex
	var sorted bool
	var spectrumOK bool
	stats := fx.Run(m, func(p *fx.Proc) {
		fx.Sections(p,
			fx.Section{Name: "sorting", Procs: 4, Body: func() {
				g := p.Group()
				a := dist.New[int64](p.Proc, dist.MustLayout(g, []int{5000},
					[]dist.Axis{dist.BlockAxis()}, []int{4}))
				a.FillFunc(func(idx []int) int64 { return int64((idx[0] * 2654435761) % 99991) })
				qsort.Sort(p, a)
				full := dist.GatherGlobal(p.Proc, a)
				if p.VP() == 0 {
					mu.Lock()
					sorted = len(full) == 5000 && slices.IsSorted(full)
					mu.Unlock()
				}
			}},
			fx.Section{Name: "signal", Procs: 4, Body: func() {
				g := p.Group()
				a := dist.New[complex128](p.Proc, dist.RowBlock2D(g, 32, 32))
				a.FillFunc(func(idx []int) complex128 { return complex(1, 0) }) // constant signal
				if len(a.Local()) > 0 {
					p.Compute(fft.Rows(a.Local(), 32))
				}
				// Constant rows: all energy in bin 0 of each row.
				ok := true
				for r := 0; r < len(a.Local())/32; r++ {
					row := a.Local()[r*32 : (r+1)*32]
					if real(row[0]) != 32 {
						ok = false
					}
					for j := 1; j < 32; j++ {
						if row[j] != 0 {
							ok = false
						}
					}
				}
				v := fx.AllReduce(p, boolToInt(ok), func(a, b int) int { return a * b })
				if p.VP() == 0 {
					mu.Lock()
					spectrumOK = v == 1
					mu.Unlock()
				}
			}},
		)
	})
	if !sorted {
		t.Error("co-scheduled sort failed")
	}
	if !spectrumOK {
		t.Error("co-scheduled FFT failed")
	}
	if stats.MakespanTime() <= 0 {
		t.Error("no virtual time elapsed")
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDynamicProcessorReassignment reassigns processors between phases —
// the "dynamic load management by reassigning processors to different tasks
// within a program" Section 6 notes coordination languages cannot do.
func TestDynamicProcessorReassignment(t *testing.T) {
	m := machine.New(6, sim.Paragon())
	var mu sync.Mutex
	phase1 := map[string]int{}
	phase2 := map[string]int{}
	fx.Run(m, func(p *fx.Proc) {
		// Phase 1: 5 processors on task A, 1 on task B.
		fx.Sections(p,
			fx.Section{Name: "A", Procs: 5, Body: func() {
				mu.Lock()
				phase1["A"] = p.NumberOfProcessors()
				mu.Unlock()
			}},
			fx.Section{Name: "B", Procs: 1, Body: func() {
				mu.Lock()
				phase1["B"] = p.NumberOfProcessors()
				mu.Unlock()
			}},
		)
		// Phase 2: rebalanced 2/4 after the load shifted.
		fx.Sections(p,
			fx.Section{Name: "A", Procs: 2, Body: func() {
				mu.Lock()
				phase2["A"] = p.NumberOfProcessors()
				mu.Unlock()
			}},
			fx.Section{Name: "B", Procs: 4, Body: func() {
				mu.Lock()
				phase2["B"] = p.NumberOfProcessors()
				mu.Unlock()
			}},
		)
	})
	if phase1["A"] != 5 || phase1["B"] != 1 || phase2["A"] != 2 || phase2["B"] != 4 {
		t.Errorf("phase1 %v phase2 %v", phase1, phase2)
	}
}

// TestTracedNestedApplication runs Barnes-Hut under a tracer and sanity
// checks the collected timeline spans the run and contains compute from
// several processors.
func TestTracedNestedApplication(t *testing.T) {
	col := &trace.Collector{}
	util := trace.NewUtilSink(4)
	m := machine.New(4, sim.Paragon())
	m.SetTracer(trace.Tee(col, util))
	res := barneshut.Run(m, barneshut.Config{N: 256, Theta: 0.8, Seed: 1, K: 6})
	if col.Len() == 0 {
		t.Fatal("no events recorded")
	}
	_, end := col.Span()
	if end < res.Makespan*0.99 {
		t.Errorf("trace span %g < makespan %g", end, res.Makespan)
	}
	computeRows := 0
	for _, u := range util.Snapshot().PerProc {
		if u.Compute > 0 {
			computeRows++
		}
	}
	if computeRows != 4 {
		t.Errorf("compute on %d of 4 processors", computeRows)
	}
}

// TestHPFAndFxInterop mixes the two surfaces in one program: an hpf.Region
// whose task bodies use Fx partitions inside.
func TestHPFAndFxInterop(t *testing.T) {
	m := machine.New(8, sim.Paragon())
	var mu sync.Mutex
	innerNP := map[int]int{}
	fx.Run(m, func(p *fx.Proc) {
		hpf.Region(p, []hpf.Task{
			{Lo: 0, Hi: 4, Body: func() {
				part := p.Partition(group.Sub("x", 2), group.Sub("y", 2))
				p.TaskRegion(part, func(r *fx.Region) {
					r.On("x", func() {
						mu.Lock()
						innerNP[p.ID()] = p.NumberOfProcessors()
						mu.Unlock()
					})
				})
			}},
			{Lo: 4, Hi: 8, Body: func() {
				mu.Lock()
				innerNP[p.ID()] = -p.NumberOfProcessors()
				mu.Unlock()
			}},
		})
	})
	for id, np := range innerNP {
		if id < 2 && np != 2 {
			t.Errorf("proc %d inner NP = %d", id, np)
		}
		if id >= 4 && np != -4 {
			t.Errorf("proc %d outer NP = %d", id, np)
		}
	}
}
