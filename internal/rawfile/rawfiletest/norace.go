//go:build !race

package rawfiletest

// Race reports whether the race detector is compiled in; it instruments
// allocations, so allocation-count tests skip themselves under it.
const Race = false
