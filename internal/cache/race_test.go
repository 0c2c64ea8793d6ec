//go:build race

package cache

// raceEnabled reports whether the race detector is compiled in; it
// instruments allocations, so allocation tests skip themselves.
const raceEnabled = true
