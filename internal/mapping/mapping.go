// Package mapping implements the automatic mapping machinery the paper uses
// to derive Figure 5 and the "Best Task-Data Parallel" column of Table 1:
// the Subhlok–Vondran algorithm for latency-optimal mapping of a sequence of
// data parallel tasks subject to a throughput constraint (refs [21, 22] of
// the paper), extended with a replication-factor search (Section 3.3).
//
// The mapper works on a Model: per-stage execution time tables t(s, p)
// (seconds per data set for stage s on p processors), a whole-program
// data-parallel time table, per-stage parallelism caps, and a transfer cost
// function between adjacent stages. Applications build Models from the same
// cost constants the simulator charges, and the chosen mapping is then
// validated by actually simulating it — predictions select, simulation
// reports.
package mapping

import (
	"fmt"
	"math"
)

// Model describes one streaming application to the mapper.
type Model struct {
	// P is the machine size.
	P int
	// StageNames label the pipeline stages (len = number of stages).
	StageNames []string
	// StageT[s][p] is the per-set time of stage s on p processors, for
	// p in 1..P (index 0 unused).
	StageT [][]float64
	// DPT[p] is the per-set time of the whole program run data-parallel on
	// p processors (index 0 unused).
	DPT []float64
	// Caps[s] limits the processors usable by stage s (0 = no cap). The
	// whole-program data-parallel mode is capped by the smallest cap.
	Caps []int
	// Xfer(s, a, b) is the per-set transfer time between stage s on a
	// processors and stage s+1 on b processors.
	Xfer func(s, a, b int) float64
}

// Validate checks internal consistency.
func (m Model) Validate() error {
	s := len(m.StageNames)
	if s == 0 {
		return fmt.Errorf("mapping: no stages")
	}
	if len(m.StageT) != s {
		return fmt.Errorf("mapping: %d stage tables for %d stages", len(m.StageT), s)
	}
	for i, tab := range m.StageT {
		if len(tab) != m.P+1 {
			return fmt.Errorf("mapping: stage %d table has %d entries, want %d", i, len(tab), m.P+1)
		}
	}
	if len(m.DPT) != m.P+1 {
		return fmt.Errorf("mapping: DP table has %d entries, want %d", len(m.DPT), m.P+1)
	}
	if len(m.Caps) != s {
		return fmt.Errorf("mapping: %d caps for %d stages", len(m.Caps), s)
	}
	if m.Xfer == nil {
		return fmt.Errorf("mapping: nil Xfer")
	}
	return nil
}

// widest returns how many of q processors stage s may use under caps (0 =
// no cap); s < 0 asks for a data-parallel module, which runs every stage on
// its one group and so is held to the narrowest cap. It is the one place a
// stage width meets a cap: the optimizer prices, and Mapping.Validate
// admits, exactly the widths it allows.
func widest(caps []int, s, q int) int {
	for i, c := range caps {
		if (s < 0 || s == i) && c != 0 && c < q {
			q = c
		}
	}
	return q
}

// Mapping is how a streaming program's processors are applied (Section
// 3.3): Modules replicas process alternate data sets, and each module is
// either data-parallel (one stage size) or a pipeline with one processor
// count per stage. When P mod Modules processors are left over, the first
// WideModules modules run with WideStages instead of Stages. It is also the
// serving layer's wire shape.
type Mapping struct {
	// Modules is the replication factor (total module count).
	Modules int `json:"modules,omitempty"`
	// Stages is processors per stage within one narrow module; a single
	// entry means the module runs data-parallel.
	Stages []int `json:"stages,omitempty"`
	// WideModules is how many of the Modules use WideStages (0 for a
	// homogeneous mapping).
	WideModules int `json:"wideModules,omitempty"`
	// WideStages is processors per stage of each wide module; nil when
	// WideModules == 0.
	WideStages []int `json:"wideStages,omitempty"`
}

// DataParallel is the one-module data-parallel mapping on p processors.
func DataParallel(p int) Mapping { return Mapping{Modules: 1, Stages: []int{p}} }

// WidestDataParallel is the one-module data-parallel mapping on as many of
// p processors as a program with the given stage caps can use.
func WidestDataParallel(p int, caps []int) Mapping { return DataParallel(widest(caps, -1, p)) }

// ModuleStages returns the per-stage processor counts of module i; the
// first WideModules modules are the wide ones.
func (mp Mapping) ModuleStages(i int) []int {
	if i < mp.WideModules {
		return mp.WideStages
	}
	return mp.Stages
}

// ModuleSizes returns the total processors of each module, in module order.
func (mp Mapping) ModuleSizes() []int {
	sizes := make([]int, mp.Modules)
	for i := range sizes {
		for _, q := range mp.ModuleStages(i) {
			sizes[i] += q
		}
	}
	return sizes
}

// Procs returns the total processors the mapping occupies.
func (mp Mapping) Procs() int {
	sum := func(procs []int) int {
		s := 0
		for _, p := range procs {
			s += p
		}
		return s
	}
	return sum(mp.Stages)*(mp.Modules-mp.WideModules) + sum(mp.WideStages)*mp.WideModules
}

// Validate checks the mapping for a program whose pipeline stages have the
// given caps (0 = no cap) on a total-processor machine: its shape for
// len(caps) stages, and each stage within its cap — every stage of a
// data-parallel module within the narrowest. Processors it leaves unused
// idle. Programs prefix the error with their name.
func (mp Mapping) Validate(total int, caps []int) error {
	if mp.Modules < 1 {
		return fmt.Errorf("need at least 1 module, got %d", mp.Modules)
	}
	if mp.WideModules < 0 || mp.WideModules >= mp.Modules {
		return fmt.Errorf("WideModules = %d of %d", mp.WideModules, mp.Modules)
	}
	sizes := func(procs []int) error {
		if len(procs) != 1 && len(procs) != len(caps) {
			return fmt.Errorf("need 1 or %d stage sizes, got %v", len(caps), procs)
		}
		for s, q := range procs {
			if q < 1 {
				return fmt.Errorf("non-positive stage size in %v", procs)
			}
			if q > total { // fails the Procs check below too, but cannot overflow it
				return fmt.Errorf("stage of %d processors exceeds the machine's %d", q, total)
			}
			if len(procs) == 1 {
				s = -1
			}
			if c := widest(caps, s, q); c < q {
				if s < 0 {
					return fmt.Errorf("data-parallel module of %d processors exceeds the narrowest stage cap, %d", q, c)
				}
				return fmt.Errorf("stage %d of %d processors exceeds its cap, %d", s, q, c)
			}
		}
		return nil
	}
	if err := sizes(mp.Stages); err != nil {
		return err
	}
	if mp.WideModules > 0 {
		if err := sizes(mp.WideStages); err != nil {
			return err
		}
		if len(mp.WideStages) != len(mp.Stages) {
			return fmt.Errorf("wide stages %v mismatch narrow %v", mp.WideStages, mp.Stages)
		}
	} else if len(mp.WideStages) != 0 {
		return fmt.Errorf("WideStages %v with zero WideModules", mp.WideStages)
	}
	if mp.Modules > total || mp.Procs() > total {
		return fmt.Errorf("mapping uses %d processors, machine has %d", mp.Procs(), total)
	}
	return nil
}

// String renders the mapping as Table 1 and Figure 5 print it:
// "data-parallel(8)", "2 x pipeline[4 2 2]", "1 x data-parallel(22) + 2 x
// data-parallel(21)".
func (mp Mapping) String() string {
	shape := func(procs []int) string {
		if len(procs) == 1 {
			return fmt.Sprintf("data-parallel(%d)", procs[0])
		}
		return fmt.Sprintf("pipeline%v", procs)
	}
	if mp.WideModules == 0 {
		if mp.Modules == 1 {
			return shape(mp.Stages)
		}
		return fmt.Sprintf("%d x %s", mp.Modules, shape(mp.Stages))
	}
	// Heterogeneous modules: always spell out both counts.
	return fmt.Sprintf("%d x %s + %d x %s",
		mp.WideModules, shape(mp.WideStages),
		mp.Modules-mp.WideModules, shape(mp.Stages))
}

// Choice is the mapping the optimizer selected, with its predictions.
type Choice struct {
	Mapping
	// PredLatency is the model-predicted per-set latency (module-count
	// weighted mean over wide and narrow modules).
	PredLatency float64
	// PredThroughput is the model-predicted steady-state throughput
	// (modules / bottleneck module period).
	PredThroughput float64
}

// Optimize returns the latency-minimal mapping whose predicted throughput is
// at least goal (data sets per second). goal = 0 optimizes latency alone.
// It returns an error when no mapping meets the goal.
func Optimize(m Model, goal float64) (Choice, error) {
	return optimize(m, goal, m.P, true)
}

// OptimizePipeline returns the latency-minimal *single-module pipeline*
// meeting the goal — the mapping family of Figure 5's middle diagram — for
// comparison against the replication-enabled optimum.
func OptimizePipeline(m Model, goal float64) (Choice, error) {
	if err := m.Validate(); err != nil {
		return Choice{}, err
	}
	if len(m.StageNames) < 2 || m.P < len(m.StageNames) {
		return Choice{}, fmt.Errorf("mapping: no pipeline possible with %d stages on %d processors", len(m.StageNames), m.P)
	}
	c, ok := m.pipelineDP(m.P, goal)
	if !ok {
		return Choice{}, fmt.Errorf("mapping: no pipeline on %d processors reaches throughput %.3f", m.P, goal)
	}
	return c, nil
}

// moduleBest returns the latency-minimal single-module assignment on at most
// q processors whose period meets moduleGoal: the better of a data-parallel
// module and a pipeline module (when both are feasible, lower latency wins,
// data-parallel breaking the tie). period is the module's per-set bottleneck
// time, the reciprocal of its standalone throughput.
func (m Model) moduleBest(q int, moduleGoal float64, allowDP bool) (procs []int, lat, period float64, ok bool) {
	lat = math.Inf(1)
	if allowDP {
		pdp := widest(m.Caps, -1, q)
		if t := m.DPT[pdp]; t > 0 && (moduleGoal == 0 || 1/t >= moduleGoal) {
			procs, lat, period, ok = []int{pdp}, t, t, true
		}
	}
	if len(m.StageNames) > 1 && q >= len(m.StageNames) {
		if c, pipeOK := m.pipelineDP(q, moduleGoal); pipeOK && c.PredLatency < lat {
			procs, lat, period, ok = c.Stages, c.PredLatency, 1/c.PredThroughput, true
		}
	}
	return procs, lat, period, ok
}

func sameProcs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func optimize(m Model, goal float64, maxModules int, allowDP bool) (Choice, error) {
	if err := m.Validate(); err != nil {
		return Choice{}, err
	}
	best := Choice{PredLatency: math.Inf(1)}
	for r := 1; r <= maxModules; r++ {
		per := m.P / r
		if per < 1 {
			break
		}
		// Per-module goal: the r modules share the stream round-robin, so
		// each must sustain a 1/r share of the overall goal.
		moduleGoal := goal / float64(r)

		procs, lat, period, ok := m.moduleBest(per, moduleGoal, allowDP)
		if !ok {
			continue
		}
		c := Choice{
			Mapping:        Mapping{Modules: r, Stages: procs},
			PredLatency:    lat,
			PredThroughput: float64(r) / period,
		}

		// Distribute the P mod r leftover processors: the first rem modules
		// get one more, when the wider assignment is no worse. The mean
		// latency over modules can only improve, and each module still meets
		// its share of the goal, so this never loses to the homogeneous
		// split it replaces.
		if rem := m.P % r; rem > 0 {
			wProcs, wLat, wPeriod, wOK := m.moduleBest(per+1, moduleGoal, allowDP)
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
		return Choice{}, fmt.Errorf("mapping: no mapping on %d processors reaches throughput %.3f", m.P, goal)
	}
	return best, nil
}

// pipelineDP finds the latency-minimal stage assignment on at most q
// processors with per-stage period <= 1/goal (goal 0 = unconstrained).
// State: f[s][u][p] = min latency of stages 0..s using u processors total
// with stage s on p processors.
func (m Model) pipelineDP(q int, goal float64) (Choice, bool) {
	nS := len(m.StageNames)
	limit := math.Inf(1)
	if goal > 0 {
		limit = 1 / goal
	}
	const inf = math.MaxFloat64
	// f[u][p] for current stage; iterate stages.
	f := make([][]float64, q+1)
	for u := range f {
		f[u] = make([]float64, q+1)
		for p := range f[u] {
			f[u][p] = inf
		}
	}
	// choice[s][u][p] = processors of stage s-1 in the best path.
	choice := make([][][]int16, nS)
	for s := range choice {
		choice[s] = make([][]int16, q+1)
		for u := range choice[s] {
			choice[s][u] = make([]int16, q+1)
			for p := range choice[s][u] {
				choice[s][u][p] = -1
			}
		}
	}
	cap0 := widest(m.Caps, 0, q)
	for p := 1; p <= cap0; p++ {
		t := m.StageT[0][p]
		if t <= limit {
			f[p][p] = t
			choice[0][p][p] = 0
		}
	}
	for s := 1; s < nS; s++ {
		nf := make([][]float64, q+1)
		for u := range nf {
			nf[u] = make([]float64, q+1)
			for p := range nf[u] {
				nf[u][p] = inf
			}
		}
		capS := widest(m.Caps, s, q)
		for u := s; u <= q; u++ { // procs used by stages 0..s-1
			for pp := 1; pp <= u; pp++ {
				prev := f[u][pp]
				if prev >= inf {
					continue
				}
				for p := 1; p <= capS && u+p <= q; p++ {
					x := m.Xfer(s-1, pp, p)
					t := m.StageT[s][p]
					// The stage's period includes its inbound transfer.
					if t+x > limit {
						continue
					}
					cand := prev + x + t
					if cand < nf[u+p][p] {
						nf[u+p][p] = cand
						choice[s][u+p][p] = int16(pp)
					}
				}
			}
		}
		f = nf
	}
	bestLat := inf
	bestU, bestP := -1, -1
	for u := nS; u <= q; u++ {
		for p := 1; p <= u; p++ {
			if f[u][p] < bestLat {
				bestLat = f[u][p]
				bestU, bestP = u, p
			}
		}
	}
	if bestU < 0 {
		return Choice{}, false
	}
	// Reconstruct stage processor counts.
	procs := make([]int, nS)
	u, p := bestU, bestP
	for s := nS - 1; s >= 0; s-- {
		procs[s] = p
		pp := int(choice[s][u][p])
		u -= p
		p = pp
	}
	// Predicted throughput: 1 / max stage period.
	period := 0.0
	for s := 0; s < nS; s++ {
		t := m.StageT[s][procs[s]]
		if s > 0 {
			t += m.Xfer(s-1, procs[s-1], procs[s])
		}
		if t > period {
			period = t
		}
	}
	return Choice{
		Mapping:        Mapping{Modules: 1, Stages: procs},
		PredLatency:    bestLat,
		PredThroughput: 1 / period,
	}, true
}
