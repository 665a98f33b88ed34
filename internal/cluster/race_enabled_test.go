//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip themselves under it (instrumentation adds
// allocations and sync.Pool drops entries; make test-allocs runs them
// without it).
const raceEnabled = true
