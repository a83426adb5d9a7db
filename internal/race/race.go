//go:build race

// Package race reports whether the race detector is compiled in, for
// tests whose bounds it invalidates: it slows code roughly tenfold, so
// wall-clock bounds do not hold, and it allocates on its own account, so
// allocation fences do not either. Such tests skip themselves.
package race

// Enabled is true in binaries built with -race.
const Enabled = true
