package experiments

import (
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// The mapper's cost tables must track the simulator: the measured model's
// data-parallel per-set time within a factor of two of a simulated stream's
// per-set latency across processor counts. (The mapper only needs correct
// *ranking*; factor two is a conservative sanity band.) Each app's own tests
// hold the same band for its closed-form oracle.

func checkBand(t *testing.T, name string, predicted, measured float64) {
	t.Helper()
	if predicted <= 0 || measured <= 0 {
		t.Errorf("%s: non-positive time (pred %g, meas %g)", name, predicted, measured)
		return
	}
	ratio := predicted / measured
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("%s: predicted %.5f vs measured %.5f (ratio %.2f outside [0.5, 2])",
			name, predicted, measured, ratio)
	}
}

// measured returns the mapper's model of an app, failing the test on error.
func measured(t *testing.T, build func() (mapping.Model, mapping.TableSource, error)) mapping.Model {
	t.Helper()
	model, _, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	return model
}

func TestFFTHistModelTracksSimulation(t *testing.T) {
	cost := sim.Paragon()
	cfg := ffthist.Config{N: 64, Sets: 6, Bins: 32}
	model := measured(t, func() (mapping.Model, mapping.TableSource, error) {
		return ffthist.MeasuredModel(cost, cfg, 16, mapping.BuildOptions{Workers: 2})
	})
	for _, p := range []int{1, 4, 16} {
		res := ffthist.Run(machine.New(p, cost), cfg, mapping.DataParallel(p))
		checkBand(t, "ffthist", model.DPT[p], res.Stream.Latency)
	}
}

func TestRadarModelTracksSimulation(t *testing.T) {
	cost := sim.Paragon()
	cfg := radar.Config{Gates: 128, Rows: 16, Sets: 6, Scale: 1.0 / 128, Threshold: 0.05}
	model := measured(t, func() (mapping.Model, mapping.TableSource, error) {
		return radar.MeasuredModel(cost, cfg, 16, mapping.BuildOptions{Workers: 2})
	})
	for _, p := range []int{1, 4, 16} {
		res := radar.Run(machine.New(p, cost), cfg, mapping.DataParallel(min(p, cfg.Rows)))
		checkBand(t, "radar", model.DPT[p], res.Stream.Latency)
	}
}

func TestStereoModelTracksSimulation(t *testing.T) {
	cost := sim.Paragon()
	cfg := stereo.Config{W: 64, H: 32, Disparities: 8, Window: 2, Sets: 6}
	model := measured(t, func() (mapping.Model, mapping.TableSource, error) {
		return stereo.MeasuredModel(cost, cfg, 16, mapping.BuildOptions{Workers: 2})
	})
	for _, p := range []int{1, 4, 16} {
		res := stereo.Run(machine.New(p, cost), cfg, mapping.DataParallel(min(p, cfg.H)))
		checkBand(t, "stereo", model.DPT[p], res.Stream.Latency)
	}
}
