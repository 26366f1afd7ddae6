package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"fxpar/internal/experiments"
)

// goldenDir is where -update-golden rewrites the committed goldens, relative
// to the repository root the benchmark is run from.
const goldenDir = "benchmark/golden"

//go:embed golden/*.json
var goldenFS embed.FS

// goldenRow is the virtual-time content of one Table 1 row: everything the
// simulation decides, nothing the host does (ModelSource says which cache
// answered and is checked per case instead).
type goldenRow struct {
	Name, Size                  string
	DPThroughput, DPLatency     float64
	Goal                        float64
	Best                        string
	TaskThroughput, TaskLatency float64
}

func toGoldenRows(rows []experiments.Table1Row) []goldenRow {
	out := make([]goldenRow, len(rows))
	for i, r := range rows {
		out[i] = goldenRow{r.Name, r.Size, r.DPThroughput, r.DPLatency, r.Goal, r.Best, r.TaskThroughput, r.TaskLatency}
	}
	return out
}

// goldens holds every committed expected output. With update set, check
// records what it sees instead of comparing, and save writes the files.
type goldens struct {
	mu     sync.Mutex
	update bool

	Table1   map[string][]goldenRow // "paper" | "quick20" | "quick16" -> rows
	SimScale map[string]float64     // engine -> makespan
	Serve    map[string]string      // "POST /path body" -> response body
}

var goldenFiles = []struct {
	file string
	ptr  func(g *goldens) any
}{
	{"table1.json", func(g *goldens) any { return &g.Table1 }},
	{"simscale.json", func(g *goldens) any { return &g.SimScale }},
	{"serve.json", func(g *goldens) any { return &g.Serve }},
}

func loadGoldens(update bool) (*goldens, error) {
	g := &goldens{update: update}
	for _, gf := range goldenFiles {
		data, err := goldenFS.ReadFile("golden/" + gf.file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, gf.ptr(g)); err != nil {
			return nil, fmt.Errorf("golden/%s: %w", gf.file, err)
		}
	}
	return g, nil
}

// save rewrites the golden files (update mode only).
func (g *goldens) save() error {
	for _, gf := range goldenFiles {
		data, err := json.MarshalIndent(gf.ptr(g), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(goldenDir, gf.file), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkMap compares got against m[key], or stores it in update mode.
func checkMap[V any](g *goldens, m *map[string]V, what, key string, got V) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.update {
		if *m == nil {
			*m = map[string]V{}
		}
		(*m)[key] = got
		return nil
	}
	want, ok := (*m)[key]
	if !ok {
		return fmt.Errorf("%s %q: no golden (run with -update-golden)", what, key)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s %q: got %v, golden %v", what, key, got, want)
	}
	return nil
}

func (g *goldens) checkTable1(key string, rows []experiments.Table1Row) error {
	return checkMap(g, &g.Table1, "table1", key, toGoldenRows(rows))
}

func (g *goldens) checkSimScale(engine string, makespan float64) error {
	return checkMap(g, &g.SimScale, "sim-scale makespan", engine, makespan)
}

func (g *goldens) checkServe(request, response string) error {
	return checkMap(g, &g.Serve, "serve response", request, response)
}
