package metrics

// Utilization at scale: a per-processor utilization table is unreadable (and
// unrenderable) at P=65536. UtilDistribution folds a UtilSink snapshot into
// per-activity sketches — the distribution of per-processor compute, send,
// wait, and IO time plus the busy fraction — so fxprof can print five
// summary lines instead of P rows, with the same determinism guarantees as
// every other sketch (fixed bins, fixed fold order).

import (
	"fmt"
	"io"
	"strings"

	"fxpar/internal/sketch"
	"fxpar/internal/trace"
)

// UtilDist summarizes the per-processor utilization distribution of a run.
type UtilDist struct {
	Procs int `json:"procs"`
	// Compute/Send/Wait/IO are distributions of per-processor virtual
	// seconds in each activity.
	Compute sketch.Sketch `json:"compute"`
	Send    sketch.Sketch `json:"send"`
	Wait    sketch.Sketch `json:"wait"`
	IO      sketch.Sketch `json:"io"`
	// Busy is the distribution of per-processor busy fraction
	// ((compute+send+io) / trace extent), in [0, 1].
	Busy sketch.Sketch `json:"busy"`
}

// UtilDistribution folds a utilization snapshot, processors in ascending id
// order (the sketch's integer bins make the order irrelevant to the result;
// the fixed order keeps it obviously deterministic).
func UtilDistribution(snap trace.UtilSnapshot) UtilDist {
	d := UtilDist{Procs: len(snap.PerProc)}
	span := snap.End - snap.Start
	for _, u := range snap.PerProc {
		d.Compute.Add(u.Compute)
		d.Send.Add(u.Send)
		d.Wait.Add(u.Wait)
		d.IO.Add(u.IO)
		if span > 0 {
			d.Busy.Add((u.Compute + u.Send + u.IO) / span)
		}
	}
	return d
}

// WriteText renders one summary line per activity.
func (d UtilDist) WriteText(w io.Writer) {
	fmt.Fprintf(w, "utilization distribution over %d procs (per-proc virtual seconds)\n", d.Procs)
	var sb strings.Builder
	sketch.WriteSketchText(&sb, "compute", &d.Compute)
	sketch.WriteSketchText(&sb, "send", &d.Send)
	sketch.WriteSketchText(&sb, "wait", &d.Wait)
	sketch.WriteSketchText(&sb, "io", &d.IO)
	sketch.WriteSketchText(&sb, "busy-frac", &d.Busy)
	io.WriteString(w, sb.String()) //nolint:errcheck // best-effort rendering
}
