//go:build !race

package transport

// raceEnabled reports whether the race detector is compiled in: it
// allocates on its own account, so the allocation fence skips itself.
const raceEnabled = false
