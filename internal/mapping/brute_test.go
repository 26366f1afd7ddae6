package mapping

import (
	"math"
	"testing"
	"testing/quick"
)

// bruteModuleBest enumerates every single-module assignment on at most q
// processors — the capped data-parallel mode and every stage-processor
// split — and returns the latency-minimal feasible one, computed directly
// from the model definitions (data-parallel wins latency ties, matching the
// optimizer's candidate order).
func bruteModuleBest(m Model, q int, moduleGoal float64) (procs []int, lat, period float64, ok bool) {
	nS := len(m.StageNames)
	lat = math.Inf(1)

	pdp := widest(m.Caps, -1, q)
	if t := m.DPT[pdp]; t > 0 && (moduleGoal == 0 || 1/t >= moduleGoal) {
		procs, lat, period, ok = []int{pdp}, t, t, true
	}

	if q < nS {
		return procs, lat, period, ok
	}
	var rec func(s, used int, cur []int)
	rec = func(s, used int, cur []int) {
		if s == nS {
			l := 0.0
			per := 0.0
			feasible := true
			for i := 0; i < nS; i++ {
				ti := m.StageT[i][cur[i]]
				x := 0.0
				if i > 0 {
					x = m.Xfer(i-1, cur[i-1], cur[i])
				}
				l += ti + x
				if ti+x > per {
					per = ti + x
				}
				if moduleGoal > 0 && ti+x > 1/moduleGoal {
					feasible = false
				}
			}
			if feasible && l < lat {
				procs, lat, period, ok = append([]int(nil), cur...), l, per, true
			}
			return
		}
		capS := widest(m.Caps, s, q)
		for c := 1; c <= capS && used+c <= q-(nS-1-s); c++ {
			cur[s] = c
			rec(s+1, used+c, cur)
		}
	}
	rec(0, 0, make([]int, nS))
	return procs, lat, period, ok
}

// bruteForce mirrors the optimizer's full search space — all module counts,
// each module assignment found exhaustively, the P mod r leftover processors
// given to the first P mod r modules when the wider assignment is no worse —
// and returns the latency-minimal feasible choice.
func bruteForce(m Model, goal float64) (Choice, bool) {
	best := Choice{PredLatency: math.Inf(1)}
	for r := 1; r <= m.P; r++ {
		per := m.P / r
		if per < 1 {
			break
		}
		moduleGoal := goal / float64(r)

		procs, lat, period, ok := bruteModuleBest(m, per, moduleGoal)
		if !ok {
			continue
		}
		c := Choice{Mapping: Mapping{Modules: r, Stages: procs}, PredLatency: lat, PredThroughput: float64(r) / period}
		if rem := m.P % r; rem > 0 {
			wProcs, wLat, wPeriod, wOK := bruteModuleBest(m, per+1, moduleGoal)
			if wOK && wLat <= lat && !sameProcs(wProcs, procs) {
				maxPeriod := period
				if wPeriod > maxPeriod {
					maxPeriod = wPeriod
				}
				c.WideModules, c.WideStages = rem, wProcs
				c.PredLatency = (float64(rem)*wLat + float64(r-rem)*lat) / float64(r)
				c.PredThroughput = float64(r) / maxPeriod
			}
		}
		if c.PredLatency < best.PredLatency {
			best = c
		}
	}
	if math.IsInf(best.PredLatency, 1) {
		return Choice{}, false
	}
	return best, true
}

// TestOptimizeMatchesBruteForce checks the DP against exhaustive enumeration
// on randomized small models.
func TestOptimizeMatchesBruteForce(t *testing.T) {
	f := func(pSeed uint8, b0, b1, b2, f0 uint8, goalSeed uint8) bool {
		p := int(pSeed)%8 + 3 // 3..10 processors
		base := [3]float64{
			float64(b0%50)/100 + 0.05,
			float64(b1%50)/100 + 0.05,
			float64(b2%50)/100 + 0.05,
		}
		fixed := [3]float64{float64(f0%20) / 1000, 0.005, 0.002}
		m := syntheticModel(p, base, fixed, 0.003)
		goal := float64(goalSeed%40) / 10 // 0..3.9
		opt, errOpt := Optimize(m, goal)
		brute, okBrute := bruteForce(m, goal)
		if (errOpt == nil) != okBrute {
			t.Logf("feasibility disagrees: opt err=%v brute ok=%v (goal %g)", errOpt, okBrute, goal)
			return false
		}
		if errOpt != nil {
			return true
		}
		if math.Abs(opt.PredLatency-brute.PredLatency) > 1e-9 {
			t.Logf("latency: opt %v (%.6f) vs brute %v (%.6f), goal %g",
				opt, opt.PredLatency, brute, brute.PredLatency, goal)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestOptimizeNeverExceedsMachine checks the processor budget invariant.
func TestOptimizeNeverExceedsMachine(t *testing.T) {
	f := func(pSeed, goalSeed uint8) bool {
		p := int(pSeed)%14 + 3
		m := syntheticModel(p, [3]float64{0.4, 0.8, 0.2}, [3]float64{0.02, 0.01, 0}, 0.004)
		goal := float64(goalSeed%30) / 8
		c, err := Optimize(m, goal)
		if err != nil {
			return true
		}
		return c.Procs() <= p && c.PredThroughput+1e-12 >= goal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCostModelChangesDecision: the optimizer must respond to the machine
// model — with near-free communication, pipelines lose their appeal against
// wider data parallelism.
func TestCostModelChangesDecision(t *testing.T) {
	// Expensive transfers: DP avoids inter-stage hops.
	expensive := syntheticModel(8, [3]float64{1, 1, 1}, [3]float64{}, 0.5)
	c1, err := Optimize(expensive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Stages) != 1 {
		t.Errorf("with 0.5s transfers the latency optimum should be DP, got %v", c1)
	}
	// A throughput goal that DP cannot meet forces replication even at high
	// transfer cost.
	dpThr := 1 / expensive.DPT[8]
	c2, err := Optimize(expensive, 1.5*dpThr)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Modules < 2 && len(c2.Stages) == 1 {
		t.Errorf("goal above DP max should not yield single DP: %v", c2)
	}
}
