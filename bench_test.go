// Benchmarks regenerating the paper's evaluation (one benchmark per table /
// figure) plus the design-choice ablations of DESIGN.md. Each iteration runs
// a full deterministic simulation; the interesting output is the reported
// virtual-time metrics (vthr = data sets per virtual second, vlat / vsec =
// virtual seconds), which are independent of the host machine. Host ns/op
// measures simulator overhead only.
package fxpar_test

import (
	"testing"

	"fxpar/internal/apps/airshed"
	"fxpar/internal/apps/barneshut"
	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/multiblock"
	"fxpar/internal/apps/qsort"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/experiments"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// --- Table 1 -------------------------------------------------------------

// benchStream reports a stream result's virtual metrics.
func reportStream(b *testing.B, thr, lat float64) {
	b.ReportMetric(thr, "vthr")
	b.ReportMetric(lat, "vlat")
}

// BenchmarkTable1FFTHist256 regenerates the FFT-Hist rows of Table 1
// (reduced to 64x64 so a benchmark iteration stays fast; cmd/table1 runs the
// paper's full 256/512 sizes).
func BenchmarkTable1FFTHist(b *testing.B) {
	cfg := ffthist.Config{N: 64, Sets: 8, Bins: 64}
	for _, tc := range []struct {
		name string
		mp   mapping.Mapping
	}{
		{"DataParallel", mapping.DataParallel(16)},
		{"Pipeline", ffthist.Pipeline(8, 5, 3)},
		{"Replicated2xDP", mapping.Mapping{Modules: 2, Stages: []int{8}}},
		{"Replicated2xPipeline", mapping.Mapping{Modules: 2, Stages: []int{4, 3, 1}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var thr, lat float64
			for i := 0; i < b.N; i++ {
				res := ffthist.Run(machine.New(16, sim.Paragon()), cfg, tc.mp)
				thr, lat = res.Stream.Throughput, res.Stream.Latency
			}
			reportStream(b, thr, lat)
		})
	}
}

// BenchmarkTable1Radar regenerates the radar row: data parallelism is capped
// by the matrix rows; replication uses the processors data parallelism
// cannot.
func BenchmarkTable1Radar(b *testing.B) {
	cfg := radar.Config{Gates: 128, Rows: 8, Sets: 8, Scale: 1.0 / 128, Threshold: 0.05}
	for _, tc := range []struct {
		name string
		mp   mapping.Mapping
	}{
		{"DataParallelCapped", mapping.DataParallel(8)}, // 8 of 16 procs usable
		{"Replicated2xDP", mapping.Mapping{Modules: 2, Stages: []int{8}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var thr, lat float64
			for i := 0; i < b.N; i++ {
				res := radar.Run(machine.New(16, sim.Paragon()), cfg, tc.mp)
				thr, lat = res.Stream.Throughput, res.Stream.Latency
			}
			reportStream(b, thr, lat)
		})
	}
}

// BenchmarkTable1Stereo regenerates the stereo row.
func BenchmarkTable1Stereo(b *testing.B) {
	cfg := stereo.Config{W: 64, H: 48, Disparities: 8, Window: 2, Sets: 8}
	for _, tc := range []struct {
		name string
		mp   mapping.Mapping
	}{
		{"DataParallel", mapping.DataParallel(16)},
		{"Pipeline", mapping.Mapping{Modules: 1, Stages: []int{8, 4, 4}}},
		{"Replicated2xDP", mapping.Mapping{Modules: 2, Stages: []int{8}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var thr, lat float64
			for i := 0; i < b.N; i++ {
				res := stereo.Run(machine.New(16, sim.Paragon()), cfg, tc.mp)
				thr, lat = res.Stream.Throughput, res.Stream.Latency
			}
			reportStream(b, thr, lat)
		})
	}
}

// BenchmarkTable1Full runs the whole Table 1 driver (quick scale), mapper
// included.
func BenchmarkTable1Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(experiments.QuickTable1())
		if len(rows) != 4 {
			b.Fatal("table 1 rows missing")
		}
	}
}

// --- Figure 5 ------------------------------------------------------------

// BenchmarkFig5Mappings runs the Figure 5 driver: the latency-optimal
// mapping under each throughput constraint, chosen by the Subhlok-Vondran
// DP and validated by simulation.
func BenchmarkFig5Mappings(b *testing.B) {
	cfg := experiments.QuickFig5()
	var lastLat float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lastLat = rows[len(rows)-1].Latency
	}
	b.ReportMetric(lastLat, "vlat")
}

// --- Figure 6 ------------------------------------------------------------

// BenchmarkFig6Airshed regenerates Figure 6's two curves at one processor
// count: the data-parallel version against the separated-I/O task version.
func BenchmarkFig6Airshed(b *testing.B) {
	cfg := airshed.Config{
		Layers: 3, Grid: 256, Species: 8,
		Hours: 3, Steps: 2,
		ChemFlops: 220, TransFlops: 25, PreFlops: 10,
	}
	b.Run("DataParallel16", func(b *testing.B) {
		var mk float64
		for i := 0; i < b.N; i++ {
			mk = airshed.Run(machine.New(16, sim.Paragon()), cfg, airshed.DataParallel).Makespan
		}
		b.ReportMetric(mk, "vsec")
	})
	b.Run("TaskIO16", func(b *testing.B) {
		var mk float64
		for i := 0; i < b.N; i++ {
			mk = airshed.Run(machine.New(16, sim.Paragon()), cfg, airshed.TaskIO).Makespan
		}
		b.ReportMetric(mk, "vsec")
	})
}

// --- Figure 4: nested quicksort -------------------------------------------

func BenchmarkQuicksortNested(b *testing.B) {
	for _, procs := range []int{1, 4, 16} {
		b.Run(benchName("procs", procs), func(b *testing.B) {
			var mk float64
			for i := 0; i < b.N; i++ {
				res := qsort.Run(machine.New(procs, sim.Paragon()), 20000, 42)
				if !res.Sorted {
					b.Fatal("sort failed")
				}
				mk = res.Makespan
			}
			b.ReportMetric(mk, "vsec")
		})
	}
}

// --- Figure 7 / Section 5.3: Barnes-Hut -----------------------------------

func BenchmarkBarnesHut(b *testing.B) {
	cfg := barneshut.Config{N: 1024, Theta: 1.0, Seed: 13, K: 8}
	for _, procs := range []int{1, 4, 16} {
		b.Run(benchName("procs", procs), func(b *testing.B) {
			var mk float64
			for i := 0; i < b.N; i++ {
				mk = barneshut.Run(machine.New(procs, sim.Paragon()), cfg).Makespan
			}
			b.ReportMetric(mk, "vsec")
		})
	}
}

// BenchmarkBarnesHutKSweep is the ablation over the number of replicated
// tree levels k: communication (worklist items) versus space (partial tree
// nodes), Section 5.3's k >= log(p) guidance.
func BenchmarkBarnesHutKSweep(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8, 10} {
		b.Run(benchName("k", k), func(b *testing.B) {
			var res barneshut.Result
			for i := 0; i < b.N; i++ {
				res = barneshut.Run(machine.New(8, sim.Paragon()),
					barneshut.Config{N: 1024, Theta: 1.0, Seed: 13, K: k})
			}
			b.ReportMetric(res.Makespan, "vsec")
			b.ReportMetric(float64(res.WorklistTotal), "worklist")
			b.ReportMetric(float64(res.MaxPartialNodes), "treenodes")
		})
	}
}

// BenchmarkBarnesHutSimulate runs the full multi-step bh loop (build tree,
// compute forces, update positions) of Figure 7.
func BenchmarkBarnesHutSimulate(b *testing.B) {
	cfg := barneshut.Config{N: 512, Theta: 0.8, Seed: 7, K: 7}
	var mk float64
	for i := 0; i < b.N; i++ {
		mk = barneshut.Simulate(machine.New(8, sim.Paragon()), cfg, 2, 1e-3).Makespan
	}
	b.ReportMetric(mk, "vsec")
}

// --- Figure 1 / multiblock -------------------------------------------------

// BenchmarkMultiblock runs the interacting-meshes pattern (parallel
// sections with section-assignment couplings) at two processor allocations.
func BenchmarkMultiblock(b *testing.B) {
	cfg := multiblock.Config{H: 48, Widths: []int{30, 18, 42}, Iters: 30, Left: 100, Right: 0}
	for _, tc := range []struct {
		name string
		per  []int
	}{
		{"procs=3", []int{1, 1, 1}},
		{"procs=9", []int{3, 2, 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			total := 0
			for _, q := range tc.per {
				total += q
			}
			var mk float64
			for i := 0; i < b.N; i++ {
				mk = multiblock.Run(machine.New(total, sim.Paragon()), cfg, tc.per).Makespan
			}
			b.ReportMetric(mk, "vsec")
		})
	}
}

// --- Design-choice ablations (DESIGN.md) ----------------------------------

// BenchmarkAblationBarrier compares subset barriers against an
// implementation that can only issue machine-wide barriers: the fast
// subgroup is dragged down to the slow subgroup's pace (Section 4,
// "Localization"). The reported metric is the *fast* subgroup's finish
// time — with subset barriers it finishes two orders of magnitude earlier
// and is free to take on other work.
func BenchmarkAblationBarrier(b *testing.B) {
	const iters = 20
	run := func(global bool) float64 {
		m := machine.New(8, sim.Paragon())
		stats := fx.Run(m, func(p *fx.Proc) {
			world := p.Group()
			part := p.Partition(group.Sub("slow", 4), group.Sub("fast", 4))
			p.TaskRegion(part, func(r *fx.Region) {
				r.On("slow", func() {
					for i := 0; i < iters; i++ {
						p.Compute(1e5)
						if global {
							comm.Barrier(p.Proc, world)
						} else {
							p.Barrier()
						}
					}
				})
				r.On("fast", func() {
					for i := 0; i < iters; i++ {
						p.Compute(1e3)
						if global {
							comm.Barrier(p.Proc, world)
						} else {
							p.Barrier()
						}
					}
				})
			})
		})
		return stats.Procs[7].Finish // a fast-subgroup processor
	}
	b.Run("SubsetBarrier", func(b *testing.B) {
		var fastFinish float64
		for i := 0; i < b.N; i++ {
			fastFinish = run(false)
		}
		b.ReportMetric(fastFinish, "vsec_fast")
	})
	b.Run("GlobalBarrier", func(b *testing.B) {
		var fastFinish float64
		for i := 0; i < b.N; i++ {
			fastFinish = run(true)
		}
		b.ReportMetric(fastFinish, "vsec_fast")
	})
}

// BenchmarkAblationScalarReplication compares replicated scalar loop
// control against the rejected owner-computes-and-broadcasts alternative
// (Section 4, "Replicated Computations"): the broadcast serializes every
// iteration across subgroups and kills pipelining.
func BenchmarkAblationScalarReplication(b *testing.B) {
	const iters = 30
	run := func(broadcast bool) float64 {
		m := machine.New(4, sim.Paragon())
		stats := fx.Run(m, func(p *fx.Proc) {
			part := p.Partition(group.Sub("a", 2), group.Sub("b", 2))
			p.TaskRegion(part, func(r *fx.Region) {
				for i := 0; i < iters; i++ {
					i := i
					if broadcast {
						// Loop variable owned by processor 0 and broadcast
						// to everyone at the top of every iteration — the
						// rejected alternative: it locksteps the subgroups.
						_ = fx.BcastVal(p, 0, i)
					}
					// Subgroup a (owning the loop variable) is heavy; b is
					// light. With replicated loop control b races ahead
					// through its iterations; with owner-and-broadcast, b
					// cannot start iteration i until the owner gets around
					// to broadcasting it — pipelining between iterations is
					// lost (Section 4, "Replicated Computations").
					r.On("a", func() { p.Compute(2e4) })
					r.On("b", func() { p.Compute(1e3) })
				}
			})
		})
		return stats.Procs[3].Finish // a processor of the light subgroup b
	}
	b.Run("Replicated", func(b *testing.B) {
		var lightFinish float64
		for i := 0; i < b.N; i++ {
			lightFinish = run(false)
		}
		b.ReportMetric(lightFinish, "vsec_light")
	})
	b.Run("OwnerBroadcast", func(b *testing.B) {
		var lightFinish float64
		for i := 0; i < b.N; i++ {
			lightFinish = run(true)
		}
		b.ReportMetric(lightFinish, "vsec_light")
	})
}

// BenchmarkAblationAssign compares the minimal-processor-subset assignment
// against a whole-group synchronizing assignment (Section 4,
// "Identification of minimal processor subsets"): the synchronizing version
// destroys pipelined task parallelism.
func BenchmarkAblationAssign(b *testing.B) {
	const sets = 12
	run := func(full bool) float64 {
		m := machine.New(3, sim.Paragon())
		stats := fx.Run(m, func(p *fx.Proc) {
			world := p.Group()
			g1 := group.MustNew([]int{0})
			g2 := group.MustNew([]int{1})
			g3 := group.MustNew([]int{2})
			a := dist.New[float64](p.Proc, dist.RowBlock2D(g1, 8, 8))
			bb := dist.New[float64](p.Proc, dist.RowBlock2D(g2, 8, 8))
			c := dist.New[float64](p.Proc, dist.RowBlock2D(g3, 8, 8))
			part := p.Partition(group.Sub("s1", 1), group.Sub("s2", 1), group.Sub("s3", 1))
			p.TaskRegion(part, func(r *fx.Region) {
				for i := 0; i < sets; i++ {
					r.On("s1", func() { p.Compute(1e5) })
					dist.Assign(p.Proc, bb, a)
					if full {
						// An implementation that cannot identify minimal
						// processor subsets makes every current processor
						// synchronize on every parent-scope assignment —
						// stage 3 waits on the stage-1 -> stage-2 transfer.
						comm.Barrier(p.Proc, world)
					}
					r.On("s2", func() { p.Compute(1e5) })
					dist.Assign(p.Proc, c, bb)
					if full {
						comm.Barrier(p.Proc, world)
					}
					r.On("s3", func() { p.Compute(1e5) })
				}
			})
		})
		return stats.MakespanTime()
	}
	b.Run("MinimalSubset", func(b *testing.B) {
		var mk float64
		for i := 0; i < b.N; i++ {
			mk = run(false)
		}
		b.ReportMetric(mk, "vsec")
	})
	b.Run("FullGroupSync", func(b *testing.B) {
		var mk float64
		for i := 0; i < b.N; i++ {
			mk = run(true)
		}
		b.ReportMetric(mk, "vsec")
	})
}

// BenchmarkAblationPlacement exercises the implementation freedom Section 4
// notes for TASK_PARTITION: "the implementation is free to choose any such
// legal assignment" of physical processors to subgroups, and Fx "attempts
// to choose a mapping that minimizes communication and synchronization
// overheads". On a linear mesh with visible per-hop cost, contiguous
// subgroup placement beats scattered placement for subgroup-internal
// communication.
func BenchmarkAblationPlacement(b *testing.B) {
	cost := sim.Paragon()
	cost.PerHop = 200e-6
	run := func(scattered bool) float64 {
		m := machine.NewMesh(8, 1, cost)
		var g1, g2 *group.Group
		if scattered {
			g1 = group.MustNew([]int{0, 2, 4, 6})
			g2 = group.MustNew([]int{1, 3, 5, 7})
		} else {
			g1 = group.MustNew([]int{0, 1, 2, 3})
			g2 = group.MustNew([]int{4, 5, 6, 7})
		}
		stats := m.Run(func(p *machine.Proc) {
			g := g1
			if !g.Contains(p.ID()) {
				g = g2
			}
			r, _ := g.RankOf(p.ID())
			for i := 0; i < 20; i++ {
				p.Compute(1e3)
				// Ring exchange within the subgroup, then a subset barrier.
				comm.Send(p, g, (r+1)%g.Size(), []float64{1})
				comm.Recv[float64](p, g, (r+3)%g.Size())
				comm.Barrier(p, g)
			}
		})
		return stats.MakespanTime()
	}
	b.Run("Contiguous", func(b *testing.B) {
		var mk float64
		for i := 0; i < b.N; i++ {
			mk = run(false)
		}
		b.ReportMetric(mk, "vsec")
	})
	b.Run("Scattered", func(b *testing.B) {
		var mk float64
		for i := 0; i < b.N; i++ {
			mk = run(true)
		}
		b.ReportMetric(mk, "vsec")
	})
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkCollectives(b *testing.B) {
	b.Run("Barrier64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := machine.New(64, sim.Paragon())
			m.Run(func(p *machine.Proc) {
				comm.Barrier(p, group.World(64))
			})
		}
	})
	b.Run("Bcast64x1k", func(b *testing.B) {
		data := make([]float64, 1024)
		for i := 0; i < b.N; i++ {
			m := machine.New(64, sim.Paragon())
			m.Run(func(p *machine.Proc) {
				comm.Bcast(p, group.World(64), 0, data)
			})
		}
	})
}

func BenchmarkTranspose(b *testing.B) {
	for _, procs := range []int{4, 16} {
		b.Run(benchName("procs", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := machine.New(procs, sim.Paragon())
				m.Run(func(p *machine.Proc) {
					g := group.World(procs)
					src := dist.New[complex128](p, dist.RowBlock2D(g, 128, 128))
					dst := dist.New[complex128](p, dist.RowBlock2D(g, 128, 128))
					dist.Transpose2D(p, dst, src)
				})
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
