//go:build !race

package cache

const raceEnabled = false
