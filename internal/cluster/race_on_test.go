//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in; allocation
// gates skip under it because instrumentation changes allocation counts.
const raceEnabled = true
