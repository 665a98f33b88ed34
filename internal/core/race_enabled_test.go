//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation-budget gates skip themselves under it (instrumentation adds
// allocations and sync.Pool drops entries; make test-parallel and
// test-planner run the gates without it).
const raceEnabled = true
