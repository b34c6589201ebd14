//go:build !race

package chase

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates: allocation bounds skip then.
const raceEnabled = false
