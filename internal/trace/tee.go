package trace

// Tee fans one machine tracer stream out to several consumers, so a run can
// feed the full Collector and the streaming sinks at the same time from a
// single machine.SetTracer call.

import "fxpar/internal/machine"

// tee forwards every event to each of its children.
type tee struct {
	tracers []machine.Tracer
}

func (t *tee) Record(e machine.Event) {
	for _, tr := range t.tracers {
		tr.Record(e)
	}
}

// Tee returns a tracer that forwards every event to all of the given
// tracers, in argument order. Nil entries are skipped; a single non-nil
// tracer is returned unwrapped; with none, Tee returns nil (tracing off).
func Tee(tracers ...machine.Tracer) machine.Tracer {
	kept := make([]machine.Tracer, 0, len(tracers))
	for _, tr := range tracers {
		if tr != nil {
			kept = append(kept, tr)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &tee{tracers: kept}
}
