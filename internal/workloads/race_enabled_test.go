//go:build race

package workloads

// raceEnabled reports whether this binary was built with the race detector —
// allocation-count gates are meaningless under its instrumentation.
const raceEnabled = true
