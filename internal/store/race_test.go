//go:build race

package store

// raceEnabled reports whether the race detector is compiled in; it
// instruments allocations, so allocation-count tests skip themselves.
const raceEnabled = true
