//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop items at random, so allocation counts stop repeating.
const raceEnabled = true
