//go:build race

package fx

// raceEnabled reports whether this test binary runs under the race
// detector, whose instrumentation changes allocation counts.
const raceEnabled = true
