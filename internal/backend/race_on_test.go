//go:build race

package backend

// raceEnabled reports whether the race detector is compiled in; allocation
// gates allow for what its instrumentation allocates.
const raceEnabled = true
