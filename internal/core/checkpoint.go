package core

import (
	"encoding/binary"
	"io"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
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

// writeEngineHeader emits the magic, version, and sweep clock.
func writeEngineHeader(w io.Writer, sweepClock int64) (int64, error) {
	var buf [8 + 2*binary.MaxVarintLen64]byte
	copy(buf[:8], engineMagic[:])
	n := 8
	n += binary.PutUvarint(buf[n:], engineSnapVersion)
	n += binary.PutVarint(buf[n:], sweepClock)
	m, err := w.Write(buf[:n])
	return int64(m), err
}

// EncodeEngineState serializes a captured engine state — sweep clock plus
// target map — in the engine checkpoint format. This is the compactor's
// path for writing a composed base without touching a live Engine; the
// bytes are identical to Engine.WriteTo of an engine holding that state.
func EncodeEngineState(w io.Writer, sweepClock int64, targets map[graph.VertexID][]dynstore.InEdge) (int64, error) {
	cw := &codecutil.CountingWriter{W: w}
	if _, err := writeEngineHeader(cw, sweepClock); err != nil {
		return cw.N, err
	}
	_, err := dynstore.EncodeSnapshot(cw, targets)
	return cw.N, err
}

// DecodeEngineStateAt parses the engine checkpoint section that is the
// rest of c into its neutral representation (sweep clock + target map)
// without touching any Engine, so delta segments can be composed on top
// before installation. The error, if any, is latched on c.
func DecodeEngineStateAt(c *codecutil.Cursor) (sweepClock int64, targets map[graph.VertexID][]dynstore.InEdge) {
	c.Header(engineMagic, engineSnapVersion)
	sweepClock = c.I("sweep clock")
	return sweepClock, dynstore.DecodeSnapshotAt(c)
}

// WriteTo serializes the engine's recoverable state — the sweep clock and
// the full D store — implementing io.WriterTo. The caller must not run
// Apply concurrently (the replica checkpoint pipeline serializes them).
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	cw := &codecutil.CountingWriter{W: w}
	if _, err := writeEngineHeader(cw, e.SweepClock()); err != nil {
		return cw.N, err
	}
	_, err := e.dynamic.WriteTo(cw)
	return cw.N, err
}

// ReadFrom restores engine state written by WriteTo, implementing
// io.ReaderFrom: it reads r to its end, and the sweep clock and the D store
// are replaced. Malformed input returns an error, never panics, and
// leaves the engine as it was.
func (e *Engine) ReadFrom(r io.Reader) (int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return int64(len(data)), err
	}
	c := codecutil.NewCursor(data, "core")
	sweepClock, targets := DecodeEngineStateAt(c)
	if err := c.Done(); err != nil {
		return int64(len(data)), err
	}
	e.LoadState(sweepClock, targets)
	return int64(len(data)), nil
}

// SweepClock returns the stream time of the last D prune — the engine
// half of a checkpoint cut.
func (e *Engine) SweepClock() int64 { return e.lastSweep.Load() }

// LoadState installs a composed checkpoint state: the sweep clock and the
// D contents are replaced by copies of targets' lists. The recovery path
// composes base + delta segments into the map first and installs once.
func (e *Engine) LoadState(sweepClock int64, targets map[graph.VertexID][]dynstore.InEdge) {
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
