package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// oldOptimize is the pre-fix homogeneous replication search, kept verbatim
// as the baseline for the no-worse-latency guarantee: every module got
// exactly P/r processors and the P mod r leftover stayed idle.
func oldOptimize(m Model, goal float64) (Choice, error) {
	if err := m.Validate(); err != nil {
		return Choice{}, err
	}
	best := Choice{PredLatency: math.Inf(1)}
	for r := 1; r <= m.P; r++ {
		per := m.P / r
		if per < 1 {
			break
		}
		moduleGoal := goal / float64(r)
		pdp := widest(m.Caps, -1, per)
		t := m.DPT[pdp]
		if t > 0 && (moduleGoal == 0 || 1/t >= moduleGoal) {
			c := Choice{Mapping: Mapping{Modules: r, Stages: []int{pdp}}, PredLatency: t, PredThroughput: float64(r) / t}
			if c.PredLatency < best.PredLatency {
				best = c
			}
		}
		if len(m.StageNames) > 1 && per >= len(m.StageNames) {
			if c, ok := m.pipelineDP(per, moduleGoal); ok {
				c.Modules = r
				c.PredThroughput *= float64(r)
				if c.PredLatency < best.PredLatency {
					best = c
				}
			}
		}
	}
	if math.IsInf(best.PredLatency, 1) {
		return Choice{}, fmt.Errorf("infeasible")
	}
	return best, nil
}

// TestRemainderProcessorsUsed is the regression test for the P mod r bug:
// a goal that forces 3 modules on a 64-processor machine used to strand
// 64 mod 3 = 1 processor; the fixed optimizer gives it to the first module
// and strictly improves mean latency.
func TestRemainderProcessorsUsed(t *testing.T) {
	// Stage 0 carries a 0.1 s fixed cost, so one module tops out near
	// 1/0.1 = 10 sets/s and a goal of 25 forces r >= 3 replication.
	m := syntheticModel(64, [3]float64{0.1, 0.1, 0.1}, [3]float64{0.1, 0, 0}, 0.001)
	c, err := Optimize(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	if c.Modules != 3 {
		t.Fatalf("choice = %v, expected 3 modules at goal 25", c)
	}
	if c.Procs() != 64 {
		t.Errorf("choice %v uses %d of 64 processors; remainder not distributed", c, c.Procs())
	}
	if c.WideModules != 1 {
		t.Errorf("choice %v: want exactly 64 mod 3 = 1 wide module", c)
	}
	old, err := oldOptimize(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !(c.PredLatency < old.PredLatency) {
		t.Errorf("fixed latency %.6f not better than homogeneous %.6f", c.PredLatency, old.PredLatency)
	}
}

// TestOptimizeNoWorseThanHomogeneous: on randomized models the remainder
// distribution must never lose to the old homogeneous split — same
// feasibility, latency less than or equal, processor budget respected.
func TestOptimizeNoWorseThanHomogeneous(t *testing.T) {
	f := func(pSeed, b0, b1, b2, f0, goalSeed uint8) bool {
		p := int(pSeed)%29 + 3 // 3..31, rarely divisible by every r
		base := [3]float64{
			float64(b0%50)/100 + 0.05,
			float64(b1%50)/100 + 0.05,
			float64(b2%50)/100 + 0.05,
		}
		fixed := [3]float64{float64(f0%20) / 1000, 0.005, 0.002}
		m := syntheticModel(p, base, fixed, 0.003)
		goal := float64(goalSeed%40) / 10
		c, err := Optimize(m, goal)
		old, errOld := oldOptimize(m, goal)
		if errOld == nil && err != nil {
			t.Logf("p=%d goal=%g: new optimizer lost feasibility", p, goal)
			return false
		}
		if err != nil {
			return true
		}
		if c.Procs() > p {
			t.Logf("p=%d goal=%g: %v uses %d procs", p, goal, c, c.Procs())
			return false
		}
		if errOld == nil && c.PredLatency > old.PredLatency+1e-12 {
			t.Logf("p=%d goal=%g: new %.6f worse than old %.6f (%v vs %v)",
				p, goal, c.PredLatency, old.PredLatency, c, old)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWideChoiceAccessors(t *testing.T) {
	c := Choice{Mapping: Mapping{
		Modules: 3, Stages: []int{2, 2, 2},
		WideModules: 1, WideStages: []int{3, 2, 2},
	}}
	if got := c.Procs(); got != 2*6+7 {
		t.Errorf("Procs = %d, want 19", got)
	}
	if got := c.ModuleSizes(); !sameProcs(got, []int{7, 6, 6}) {
		t.Errorf("ModuleSizes = %v, want [7 6 6]", got)
	}
	if !sameProcs(c.ModuleStages(0), []int{3, 2, 2}) {
		t.Errorf("module 0 = %v, want wide", c.ModuleStages(0))
	}
	if !sameProcs(c.ModuleStages(2), []int{2, 2, 2}) {
		t.Errorf("module 2 = %v, want narrow", c.ModuleStages(2))
	}
	dp := Mapping{Modules: 5, Stages: []int{2}, WideModules: 2, WideStages: []int{3}}
	if got := dp.Procs(); got != 12 {
		t.Errorf("%v: Procs = %d, want 12", dp, got)
	}
}

// randomPipelineModel builds a model with nS stages on p processors with
// randomized cost tables, occasional per-stage caps, and a transfer cost
// that depends on both endpoint widths.
func randomPipelineModel(rng *rand.Rand, nS, p int) Model {
	names := make([]string, nS)
	stageT := make([][]float64, nS)
	caps := make([]int, nS)
	for s := range names {
		names[s] = fmt.Sprintf("s%d", s)
		stageT[s] = make([]float64, p+1)
		base := 0.2 + rng.Float64()
		fixed := rng.Float64() * 0.05
		for q := 1; q <= p; q++ {
			stageT[s][q] = base/float64(q) + fixed + rng.Float64()*0.01
		}
		if rng.Intn(4) == 0 {
			caps[s] = 1 + rng.Intn(p)
		}
	}
	xf := rng.Float64() * 0.02
	dpt := make([]float64, p+1)
	for q := 1; q <= p; q++ {
		for s := 0; s < nS; s++ {
			dpt[q] += stageT[s][q]
		}
	}
	return Model{
		P: p, StageNames: names, StageT: stageT, DPT: dpt, Caps: caps,
		Xfer: func(s, a, b int) float64 { return xf * float64(a+b) / 10 },
	}
}

// TestPipelineDPExhaustive cross-checks pipelineDP against brute-force
// enumeration of every stage assignment on small instances: the DP must
// return a latency-minimal assignment among those meeting the throughput
// constraint, and agree on feasibility.
func TestPipelineDPExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nS := 2 + rng.Intn(3)     // 2..4 stages
		p := nS + rng.Intn(11-nS) // nS..10 processors
		m := randomPipelineModel(rng, nS, p)
		goal := 0.0
		if rng.Intn(3) > 0 {
			goal = rng.Float64() * 3
		}
		limit := math.Inf(1)
		if goal > 0 {
			limit = 1 / goal
		}

		// Brute force: every assignment of 1..cap procs per stage, total <= p.
		bestLat := math.Inf(1)
		var rec func(s, used int, procs []int)
		rec = func(s, used int, procs []int) {
			if s == nS {
				lat := 0.0
				for i := 0; i < nS; i++ {
					ti := m.StageT[i][procs[i]]
					x := 0.0
					if i > 0 {
						x = m.Xfer(i-1, procs[i-1], procs[i])
					}
					if ti+x > limit {
						return
					}
					lat += ti + x
				}
				if lat < bestLat {
					bestLat = lat
				}
				return
			}
			capS := widest(m.Caps, s, p)
			for q := 1; q <= capS && used+q <= p; q++ {
				procs[s] = q
				rec(s+1, used+q, procs)
			}
		}
		rec(0, 0, make([]int, nS))

		c, ok := m.pipelineDP(p, goal)
		if ok != !math.IsInf(bestLat, 1) {
			t.Fatalf("trial %d (nS=%d p=%d goal=%.3f): DP feasible=%v, brute feasible=%v",
				trial, nS, p, goal, ok, !math.IsInf(bestLat, 1))
		}
		if !ok {
			continue
		}
		if math.Abs(c.PredLatency-bestLat) > 1e-9 {
			t.Fatalf("trial %d (nS=%d p=%d goal=%.3f): DP latency %.9f, brute %.9f (%v)",
				trial, nS, p, goal, c.PredLatency, bestLat, c)
		}
		// The returned assignment must reproduce the claimed latency and
		// respect the constraint when recomputed from the tables.
		lat := 0.0
		for i := 0; i < nS; i++ {
			ti := m.StageT[i][c.Stages[i]]
			x := 0.0
			if i > 0 {
				x = m.Xfer(i-1, c.Stages[i-1], c.Stages[i])
			}
			if ti+x > limit+1e-12 {
				t.Fatalf("trial %d: returned assignment %v violates period limit at stage %d", trial, c, i)
			}
			lat += ti + x
		}
		if math.Abs(lat-c.PredLatency) > 1e-9 {
			t.Fatalf("trial %d: recomputed latency %.9f != reported %.9f for %v", trial, lat, c.PredLatency, c)
		}
	}
}
