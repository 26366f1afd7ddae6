// Package streams holds the shared structure of the stream-based sensor
// applications (FFT-Hist, radar, stereo). A Program is one such
// application's chain of data-parallel stages, written once; from it come
// the data-parallel run (Figure 2(a)), the pipeline (Figure 2(c)), the
// replicated modules of Section 3.3 with leftover processors idling, the
// cost-table cells the mapper measures, and the part of its cost model the
// mapper does not measure.
package streams

import (
	"fmt"
	"sync"

	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
)

// Stage is one data-parallel stage of a Program, processing one data set
// at a time in an array distributed over the stage's group. Its results
// are R, reported by the last stage.
type Stage[T, R any] struct {
	// Name is the stage's name in the cost tables ("cffts", "input", ...).
	Name string
	// Group names the stage's subgroup when the program runs as a pipeline
	// ("G1", "Gin", ...).
	Group string
	// Cap is the widest group the stage can use; 0 means no cap.
	Cap int
	// Turn makes the transfer into the stage a corner turn
	// (dist.Transpose2D). Otherwise it is a dist.Assign, which on one group
	// is no transfer at all: the stage works on the previous stage's array.
	Turn bool
	// Layout distributes the stage's array over a group.
	Layout func(g *group.Group) *dist.Layout
	// New allocates the stage's private state for its array a on p and
	// returns the body that processes one data set. The last stage's body
	// calls done on the processor that completes the set; done is nil when
	// the stage runs alone as a cost-table cell (see Cells).
	New func(p *fx.Proc, a *dist.Array[T], done func(p *fx.Proc, set int, r R)) func(set int)
}

// Program is a stream program: its stages in order. The directives that
// map it (data parallel, pipeline, replicated modules) do not change what
// it computes.
type Program[T, R any] []Stage[T, R]

// Caps returns the stages' caps, in order: what mapping.Mapping.Validate
// admits the program under and what the mapper prices it with.
func (pr Program[T, R]) Caps() []int {
	caps := make([]int, len(pr))
	for s, st := range pr {
		caps[s] = st.Cap
	}
	return caps
}

// Run streams data sets 0 … sets-1 through pr under mp on mach, metering
// each set from its injection by the first stage's rank 0 to its
// completion, and returns the results the last stage reported. It panics,
// prefixed with the program's name, on a mapping mapping.Mapping.Validate
// rejects for mach and pr's caps.
func (pr Program[T, R]) Run(name string, mach *machine.Machine, mp mapping.Mapping, sets int, meter *stats.Stream) (map[int]R, machine.RunStats) {
	if err := mp.Validate(mach.N(), pr.Caps()); err != nil {
		panic(fmt.Errorf("%s: %w", name, err))
	}
	vals := make(map[int]R)
	var mu sync.Mutex
	done := func(p *fx.Proc, set int, r R) {
		meter.Complete(set, p.Now())
		mu.Lock()
		vals[set] = r
		mu.Unlock()
	}
	sizes, idle := mp.ModuleSizes(), mach.N()-mp.Procs()
	module := func(p *fx.Proc, i int) {
		if stages := mp.ModuleStages(i); len(stages) > 1 {
			pr.pipeline(p, stages, i, mp.Modules, sets, meter, done)
		} else {
			pr.dataParallel(p, i, mp.Modules, sets, meter, done)
		}
	}
	st := fx.Run(mach, func(p *fx.Proc) { runModules(p, sizes, idle, module) })
	return vals, st
}

// step is one stage of a data-parallel module: its array, whether a corner
// turn fills it, and its body.
type step[T any] struct {
	a    *dist.Array[T]
	turn bool
	body func(set int)
}

// dataParallel runs sets first, first+stride, … < sets with every stage on
// the current group.
func (pr Program[T, R]) dataParallel(p *fx.Proc, first, stride, sets int, meter *stats.Stream, done func(*fx.Proc, int, R)) {
	g := p.Group()
	steps := make([]step[T], 0, 4) // on the stack up to four stages
	var a *dist.Array[T]
	for s, st := range pr {
		turn := s > 0 && st.Turn
		if s == 0 || turn {
			a = dist.New[T](p.Proc, st.Layout(g))
		}
		steps = append(steps, step[T]{a, turn, st.New(p, a, done)})
	}
	for set := first; set < sets; set += stride {
		if steps[0].a.Rank() == 0 {
			meter.Inject(set, p.Now())
		}
		for s, st := range steps {
			if st.turn {
				dist.Transpose2D(p.Proc, st.a, steps[s-1].a)
			}
			st.body(set)
		}
	}
}

// pipeline runs sets first, first+stride, … < sets through one subgroup
// per stage, stages[s] processors each, connected by parent-scope
// transfers: Figure 2(c).
func (pr Program[T, R]) pipeline(p *fx.Proc, stages []int, first, stride, sets int, meter *stats.Stream, done func(*fx.Proc, int, R)) {
	g := p.Group()
	spec := fx.PipelineSpec{Sets: sets, First: first, Stride: stride,
		Stages: make([]fx.Stage, len(pr)), Transfer: make([]func(int), len(pr)-1)}
	var prev *dist.Array[T]
	lo := 0
	for s, st := range pr {
		a := dist.New[T](p.Proc, st.Layout(g.Subrange(lo, lo+stages[s])))
		lo += stages[s]
		body := st.New(p, a, done)
		if s == 0 {
			input := body
			body = func(set int) {
				if a.Rank() == 0 {
					meter.Inject(set, p.Now())
				}
				input(set)
			}
		} else if src := prev; st.Turn {
			spec.Transfer[s-1] = func(int) { dist.Transpose2D(p.Proc, a, src) }
		} else {
			spec.Transfer[s-1] = func(int) { dist.Assign(p.Proc, a, src) }
		}
		spec.Stages[s] = fx.Stage{Name: st.Group, Procs: stages[s], Body: body}
		prev = a
	}
	fx.PipelineLoop(p, spec)
}

// Cells describes pr to the cost-table measurer under id: stage s alone on
// all of a machine for one data set, reporting to no one (done is nil), and
// the data-parallel program on all of a machine for one set.
func (pr Program[T, R]) Cells(id mapping.Ident) mapping.Cells {
	return mapping.Cells{
		Ident: id,
		Stage: func(m *machine.Machine, s int) float64 {
			st := pr[s]
			return fx.Run(m, func(p *fx.Proc) {
				st.New(p, dist.New[T](p.Proc, st.Layout(p.Group())), nil)(0)
			}).MakespanTime()
		},
		DP: func(m *machine.Machine) float64 {
			meter := stats.NewStream()
			pr.Run(id.App, m, mapping.DataParallel(m.N()), 1, meter)
			return meter.Summarize().Latency
		},
	}
}

// Model returns what of the mapper's cost model on a maxP-processor machine
// pr declares rather than measures: the stage names, their caps, and the
// transfer time between stage s on a processors and stage s+1 on b —
// b·o + α + bytes/(a·b)·β, each of a senders splitting its share of stage
// s+1's array into b messages.
func (pr Program[T, R]) Model(cost sim.CostModel, maxP int) mapping.Model {
	m := mapping.Model{P: maxP, StageNames: make([]string, len(pr)), Caps: pr.Caps()}
	bytes := make([]float64, len(pr))
	for s, st := range pr {
		m.StageNames[s] = st.Name
		bytes[s] = float64(st.Layout(group.World(1)).Size() * comm.ElemBytes[T]())
	}
	m.Xfer = func(s, a, b int) float64 {
		return float64(b)*cost.SendOverhead + cost.Alpha + bytes[s+1]/float64(a*b)*cost.Beta
	}
	return m
}

// partCache memoizes the partition template by (parent group, sizes). Under
// SPMD every processor of the group executes the same runModules call, so
// without sharing, each of P processors would build its own O(modules)
// template — an O(P·modules) tax per region that dominated the P≥16384
// telemetry soak. Partitions are immutable after construction, so one
// template is safe to share across processors; construction happens on the
// host side only and never touches virtual time.
var partCache struct {
	sync.Mutex
	m map[partKey]*group.Partition
}

// partKey names sizes by its backing array, which every processor of a run
// shares and the key keeps alive, so no other slice can take its address.
type partKey struct {
	parent *group.Group
	sizes  *int
	n      int
}

// sharedPartition returns the (possibly cached) partition of the current
// group into module subgroups of the given sizes plus an optional idle tail.
func sharedPartition(p *fx.Proc, sizes []int, idle int) *group.Partition {
	key := partKey{parent: p.Group(), sizes: &sizes[0], n: len(sizes)}
	partCache.Lock()
	defer partCache.Unlock()
	if part, ok := partCache.m[key]; ok {
		return part
	}
	if partCache.m == nil || len(partCache.m) >= 256 {
		partCache.m = make(map[partKey]*group.Partition, 16)
	}
	specs := make([]group.Spec, 0, len(sizes)+1)
	for i, s := range sizes {
		specs = append(specs, group.Sub(fmt.Sprintf("mod%d", i), s))
	}
	if idle > 0 {
		specs = append(specs, group.Sub("idle", idle))
	}
	part := p.Partition(specs...)
	partCache.m[key] = part
	return part
}

// runModules partitions the current group into one subgroup per entry of
// sizes — sizes[i] processors for module i, not necessarily equal, so the
// optimizer can hand leftover processors to some modules — with the idle
// processors that remain doing nothing (like the nodes the paper's
// data-parallel radar could not exploit), and runs body on each module with
// its index. With one module and no idle processors the body runs directly
// on the current group, avoiding a needless partition level. sizes and idle
// come from a mapping Run validated for the current group size; processors
// passing the same slice share one partition (see partCache).
func runModules(p *fx.Proc, sizes []int, idle int, body func(p *fx.Proc, module int)) {
	modules := len(sizes)
	if modules == 1 && idle == 0 {
		body(p, 0)
		return
	}
	part := sharedPartition(p, sizes, idle)
	// Each processor enters only its own module's On block. Iterating every
	// module would cost O(modules) per processor even though a non-member On
	// is a no-op; an On entered by a non-member emits nothing and advances no
	// virtual time, so dispatching directly leaves traces byte-identical.
	module, ok := part.IndexOf(p.ID())
	p.TaskRegion(part, func(r *fx.Region) {
		if !ok || module >= modules { // idle tail
			return
		}
		name, _, _ := part.SubgroupOf(p.ID())
		r.On(name, func() {
			body(p, module)
		})
	})
}

// Frame returns the full-size buffer rank 0 of a's group reads a data set
// into before scattering it over a; nil on every other processor and under
// charge. A module allocates its frames once and overwrites them per set.
func Frame[T any](a *dist.Array[T], charge bool) []T {
	if a.Rank() != 0 || charge {
		return nil
	}
	return make([]T, a.Layout().Size())
}
