package core

import (
	"encoding/binary"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
)

// The engine checkpoint format wraps the D-store snapshot with the
// engine's own stream-time state: a magic header, the format version, the
// last-sweep stream timestamp, then the embedded dynstore snapshot.
// Restoring the sweep clock matters for fault equivalence: pruning is
// driven by stream time, so a recovered replica that replays the firehose
// from its checkpoint offset must sweep on exactly the cadence the
// original would have, or its D store diverges from the no-fault run.

// engineMagic identifies the engine checkpoint format, version 1.
var engineMagic = [8]byte{'M', 'S', 'E', 'N', 'G', 'S', 0, 1}

const engineSnapVersion = 1

// AppendEngineState appends a segment's engine state — sweep clock plus a
// sealed run of D targets — in the engine checkpoint format: how a composed
// base is written without touching a live Engine, and how AppendState
// writes a live one.
func AppendEngineState(b []byte, sweepClock int64, targets dynstore.Targets) []byte {
	return dynstore.AppendTargets(AppendEngineHeader(b, sweepClock), targets, false)
}

// AppendEngineHeader appends the engine section up to its D section: magic,
// version and the sweep clock. A D section must follow.
func AppendEngineHeader(b []byte, sweepClock int64) []byte {
	return binary.AppendVarint(codecutil.AppendHeader(b, engineMagic, engineSnapVersion), sweepClock)
}

// WalkEngineStateAt reads the engine checkpoint section that is the rest of
// c into the sweep clock and the D section's spans (dynstore.WalkTargetsAt),
// checking it whole and decoding no list. The error, if any, is latched on
// c.
func WalkEngineStateAt(c *codecutil.Cursor) (sweepClock int64, targets dynstore.Spans) {
	c.Header(engineMagic, engineSnapVersion)
	sweepClock = c.I("sweep clock")
	return sweepClock, dynstore.WalkTargetsAt(c, false)
}

// AppendState appends the engine's recoverable state — the sweep clock and
// the full D store. The caller must not run Apply concurrently (the replica
// checkpoint pipeline serializes them).
func (e *Engine) AppendState(b []byte) []byte {
	return AppendEngineState(b, e.SweepClock(), e.dynamic.Targets())
}

// SweepClock returns the stream time of the last D prune — the engine
// half of a checkpoint cut.
func (e *Engine) SweepClock() int64 { return e.lastSweep.Load() }

// LoadState installs a composed checkpoint state: the sweep clock and the
// D contents are replaced by copies of targets' lists. The recovery path
// merges base + delta segments into one run first and installs once.
func (e *Engine) LoadState(sweepClock int64, targets dynstore.Targets) {
	e.dynamic.LoadSnapshot(targets)
	e.lastSweep.Store(sweepClock)
}

// Reset drops the engine's recoverable state — D contents and the sweep
// clock — modeling a crashed detection server. S is rebuilt from the
// offline pipeline, not checkpointed, so it is left in place.
func (e *Engine) Reset() {
	e.lastSweep.Store(0)
	e.dynamic.Reset()
}
