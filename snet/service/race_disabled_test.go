//go:build !race

package service

// raceEnabled reports whether this binary was built with the race detector —
// allocation-count gates are meaningless under its instrumentation.
const raceEnabled = false
