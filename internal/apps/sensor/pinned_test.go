package sensor

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/trace"
)

// digestRun folds what one traced run shows — its Out, every Collector
// event field by field and the encoded skeleton — into h. Floats are hashed
// by their bits, so a one-ulp move changes the digest.
func digestRun(t *testing.T, h hash.Hash64, eng machine.Engine, procs int, run func(*machine.Machine) Out) {
	t.Helper()
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	var col trace.Collector
	sink := skeleton.NewSink(sim.Paragon(), "")
	m.SetTracer(trace.Tee(&col, sink))
	out := run(m)
	fmt.Fprintf(h, "out %+v %x\n", out.Stream, math.Float64bits(out.Makespan))
	for _, e := range col.Events() {
		fmt.Fprintf(h, "%d %d %x %x %d %d %d %q %d %x %x %d\n", e.Proc, e.Kind,
			math.Float64bits(e.Start), math.Float64bits(e.End), e.Seq, e.Peer, e.Bytes,
			e.Label, e.Depth, math.Float64bits(e.Dur), math.Float64bits(e.Wire), e.PairSeq)
	}
	sk, err := sink.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
}

// digestCells folds the cost-table cells of a at p ∈ {1, 3, 8} into h:
// every stage cell's value and the skeleton its replay-first build stored,
// and the data-parallel cell's value and traced one-set run.
func digestCells(t *testing.T, h hash.Hash64, eng machine.Engine, name string) {
	t.Helper()
	a, err := ByName(name, true, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cost := sim.Paragon()
	store := skeleton.NewStore("")
	opt := mapping.BuildOptions{Workers: 1, Engine: eng, Replay: &mapping.ReplayOptions{Store: store, Base: cost}}
	mapping.ResetTableMemo()
	model, _, err := a.Model(cost, 8, opt)
	mapping.ResetTableMemo()
	if err != nil {
		t.Fatal(err)
	}
	params := a.Spec(cost, 8, opt).Params
	for _, p := range []int{1, 3, 8} {
		for s := range model.StageNames {
			fmt.Fprintf(h, "stage %d p=%d %x\n", s, p, math.Float64bits(model.StageT[s][p]))
			key := skeleton.StoreKey{App: name + ".stage", Params: fmt.Sprintf("%s,s=%d", params, s),
				Mapping: "isolated", P: p, Cost: cost}
			sk, _, ok := store.Get(key)
			if !ok {
				t.Fatalf("%s: no stored skeleton for stage %d at p=%d", name, s, p)
			}
			b, err := sk.Encode()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		fmt.Fprintf(h, "dp p=%d %x\n", p, math.Float64bits(model.DPT[p]))
		dp := a.DataParallel(p)
		digestRun(t, h, eng, dp.Stages[0], func(m *machine.Machine) Out { return a.Run(m, dp) })
	}
}

// TestPinnedRunDigests pins, per quick program, everything a run shows —
// Out, events and skeleton — under the data-parallel mapping, the
// full-depth pipeline, two heterogeneous modules, radar's data-parallel
// module on a machine twice its width, and every cost-table cell, under
// both engine families. FFT-Hist's and stereo's computing package Runs
// digest as their charged App.Runs do. A refactor of how the programs are
// spelled must leave every digest where it is.
func TestPinnedRunDigests(t *testing.T) {
	type runCase struct {
		app   string
		name  string
		procs int
		mp    mapping.Mapping
		want  uint64
	}
	cases := []runCase{
		{"ffthist", "dp", 8, mapping.DataParallel(8), 0xf3e80b7138cd1394},
		{"ffthist", "pipeline", 8, mapping.Mapping{Modules: 1, Stages: []int{2, 3, 3}}, 0x845023ecf589731c},
		{"ffthist", "hetero", 8, mapping.Mapping{Modules: 2, Stages: []int{1, 1, 1}, WideModules: 1, WideStages: []int{2, 2, 1}}, 0x6d3e3a7f38050113},
		{"radar", "dp", 8, mapping.DataParallel(8), 0x470c6ba742f3d642},
		{"radar", "pipeline", 8, mapping.Mapping{Modules: 1, Stages: []int{2, 2, 2, 2}}, 0x7946dc5bbda239ae},
		{"radar", "hetero", 10, mapping.Mapping{Modules: 2, Stages: []int{1, 1, 1, 1}, WideModules: 1, WideStages: []int{2, 2, 1, 1}}, 0x93798ed451aa887f},
		{"radar", "idle", 16, mapping.DataParallel(8), 0xc05f94c370d3846f},
		{"stereo", "dp", 8, mapping.DataParallel(8), 0x6162e6fdbb025228},
		{"stereo", "pipeline", 8, mapping.Mapping{Modules: 1, Stages: []int{3, 3, 2}}, 0xa52298e2ecd780af},
		{"stereo", "hetero", 7, mapping.Mapping{Modules: 2, Stages: []int{3}, WideModules: 1, WideStages: []int{4}}, 0x31a0f5f0cfc83ae6},
	}
	computing := map[string]func(*machine.Machine, mapping.Mapping) Out{
		"ffthist": func(m *machine.Machine, mp mapping.Mapping) Out {
			r := ffthist.Run(m, ffthist.Config{N: 32, Sets: 4, Bins: 64}, mp)
			return Out{r.Stream, r.Makespan}
		},
		"stereo": func(m *machine.Machine, mp mapping.Mapping) Out {
			r := stereo.Run(m, stereo.Config{W: 64, H: 24, Disparities: 8, Window: 2, Sets: 4}, mp)
			return Out{r.Stream, r.Makespan}
		},
	}
	cells := map[string]uint64{"ffthist": 0xa7ef27289fd383b4, "radar": 0xcc97d1a15908426f, "stereo": 0x1404c3941c33cfea}
	for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
		for _, c := range cases {
			a, err := ByName(c.app, true, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(c.mp, c.procs); err != nil {
				t.Fatalf("%s %s: %v", c.app, c.name, err)
			}
			h := fnv.New64a()
			digestRun(t, h, eng, c.procs, func(m *machine.Machine) Out { return a.Run(m, c.mp) })
			if got := h.Sum64(); got != c.want {
				t.Errorf("%s %s (%v on %d) under %s: digest %#x, pinned %#x", c.app, c.name, c.mp, c.procs, eng.Name(), got, c.want)
			}
			if run, ok := computing[c.app]; ok {
				h := fnv.New64a()
				digestRun(t, h, eng, c.procs, func(m *machine.Machine) Out { return run(m, c.mp) })
				if got := h.Sum64(); got != c.want {
					t.Errorf("%s %s computing under %s: digest %#x, pinned %#x", c.app, c.name, eng.Name(), got, c.want)
				}
			}
		}
		for _, name := range []string{"ffthist", "radar", "stereo"} {
			h := fnv.New64a()
			digestCells(t, h, eng, name)
			if got := h.Sum64(); got != cells[name] {
				t.Errorf("%s cells under %s: digest %#x, pinned %#x", name, eng.Name(), got, cells[name])
			}
		}
	}
}

// shapes returns every mapping shape of a program with stages pipeline
// stages on at most maxP processors: one or stages entries per module, any
// module count, homogeneous or with a wide share.
func shapes(stages, maxP int) []mapping.Mapping {
	var vecs [][]int
	var grow func(v []int, left int)
	grow = func(v []int, left int) {
		if len(v) == 1 || len(v) == stages {
			vecs = append(vecs, slices.Clone(v))
		}
		for q := 1; q <= left && len(v) < stages; q++ {
			grow(append(v, q), left-q)
		}
	}
	grow(nil, maxP)
	var out []mapping.Mapping
	for _, narrow := range vecs {
		for modules := 1; (mapping.Mapping{Modules: modules, Stages: narrow}).Procs() <= maxP; modules++ {
			out = append(out, mapping.Mapping{Modules: modules, Stages: narrow})
			for wideMods := 1; wideMods < modules; wideMods++ {
				for _, wide := range vecs {
					mp := mapping.Mapping{Modules: modules, Stages: narrow, WideModules: wideMods, WideStages: wide}
					if len(wide) == len(narrow) && mp.Procs() <= maxP {
						out = append(out, mp)
					}
				}
			}
		}
	}
	return out
}

// TestPinnedValidate pins, per quick program, the set of mappings its
// Validate accepts over every shape on machines of 1 to 10 processors.
func TestPinnedValidate(t *testing.T) {
	for _, tc := range []struct {
		app    string
		stages int
		want   uint64
	}{
		{"ffthist", 3, 0xf0ed1f7d52b6c092},
		{"radar", 4, 0xf46db300c6ed7929},
		{"stereo", 3, 0xf0ed1f7d52b6c092},
	} {
		a, err := ByName(tc.app, true, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		accepted := 0
		for _, mp := range shapes(tc.stages, 10) {
			for p := 1; p <= 10; p++ {
				if a.Validate(mp, p) == nil {
					fmt.Fprintf(h, "%d %+v\n", p, mp)
					accepted++
				}
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: %d accepted mappings digest to %#x, pinned %#x", tc.app, accepted, got, tc.want)
		}
	}
}
