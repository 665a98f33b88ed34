//go:build race

package racetest

// Enabled reports whether the race detector is compiled in.
const Enabled = true
