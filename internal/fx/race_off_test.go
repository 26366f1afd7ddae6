//go:build !race

package fx

const raceEnabled = false
