// Package racetest tells tests whether the race detector is compiled in.
// Allocation gates skip themselves under it (instrumentation adds
// allocations and sync.Pool drops entries), and so do timing assertions
// (instrumentation skews their ratios); the runs without it — make
// test-allocs among them — enforce both. The candidate path reads it too:
// under the detector a recycled candidate chunk is poisoned while it waits
// to be issued again, so the suites that run under it catch an early
// release (motif.Lease).
package racetest
