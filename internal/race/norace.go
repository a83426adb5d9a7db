//go:build !race

package race

// Enabled is true in binaries built with -race.
const Enabled = false
