// Package racetest tells tests whether the race detector is compiled in.
// Allocation gates skip themselves under it (instrumentation adds
// allocations and sync.Pool drops entries), and so do timing assertions
// (instrumentation skews their ratios); the runs without it — make
// test-allocs among them — enforce both.
package racetest
