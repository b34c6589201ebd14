//go:build !race

package acyclicity

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
