package dynstore

import (
	"io"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// deltaMagic identifies the dynstore delta segment format (same version
// and CRC32C framing as the snapshot format). A delta reuses the snapshot
// frame encoding: per dirtied target the full replacement list, with an
// empty list meaning the target was deleted (swept or fully pruned) since
// the previous cut.
var deltaMagic = [8]byte{'M', 'S', 'D', 'S', 'D', 'L', 0, 1}

// Delta is the dirtied-since-last-cut slice of a Store: for every target
// touched since the previous capture, its complete current list. Full
// replacement (rather than an operation log) makes deltas idempotent and
// trivially composable — applying segments in cut order, last write wins
// per target, reconstructs the store exactly.
type Delta struct {
	// Targets maps each dirtied C to a copy of its current list; an empty
	// or nil list records a deletion.
	Targets map[graph.VertexID][]InEdge
}

// Len returns the number of dirtied targets carried by the delta.
func (d Delta) Len() int { return len(d.Targets) }

// CaptureDelta copies every dirtied target's current list and resets the
// dirty sets — the synchronous part of an incremental checkpoint cut. Its
// cost is proportional to the number of targets touched since the last
// cut, not to the store size, which is what keeps the apply-loop pause
// bounded, and the copies share one array sized in a first pass, so a cut
// allocates a handful of times however many targets it carries. The caller
// must quiesce writers for a consistent cut (the replica checkpoint
// pipeline serializes cuts with Apply).
func (s *Store) CaptureDelta() Delta {
	targets, edges := 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		targets += len(sh.dirty)
		for c := range sh.dirty {
			edges += len(sh.targets[c])
		}
		sh.mu.RUnlock()
	}
	out := make(map[graph.VertexID][]InEdge, targets)
	arena := codecutil.Arena[InEdge]{Chunk: edges}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c := range sh.dirty {
			out[c] = arena.Copy(sh.targets[c]) // absent => deletion, encoded as empty
		}
		if len(sh.dirty) > 0 {
			sh.dirty = make(map[graph.VertexID]struct{})
		}
		sh.mu.Unlock()
	}
	return Delta{Targets: out}
}

// WriteTo serializes the delta segment, implementing io.WriterTo. Targets
// are written in ascending order so equal deltas serialize identically.
func (d Delta) WriteTo(w io.Writer) (int64, error) {
	return encodeFrames(w, deltaMagic, sortedIDs(d.Targets), func(c graph.VertexID) []InEdge {
		return d.Targets[c]
	})
}

// DecodeDeltaAt parses the delta section that is the rest of c. The error,
// if any, is latched on c.
func DecodeDeltaAt(c *codecutil.Cursor) Delta {
	return Delta{Targets: decodeFrames(c, deltaMagic)}
}

// DecodeDelta parses a delta segment written by WriteTo, reading r to its
// end: the segment must be all of it.
func DecodeDelta(r io.Reader) (Delta, int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Delta{}, int64(len(data)), err
	}
	c := codecutil.NewCursor(data, "dynstore delta")
	d := DecodeDeltaAt(c)
	if err := c.Done(); err != nil {
		return Delta{}, int64(len(data)), err
	}
	return d, int64(len(data)), nil
}

// ApplyTo folds the delta into a composed target map (base-plus-chain
// restore composition): each carried target replaces the map's entry, and
// an empty list deletes it.
func (d Delta) ApplyTo(targets map[graph.VertexID][]InEdge) {
	for c, list := range d.Targets {
		if len(list) == 0 {
			delete(targets, c)
		} else {
			targets[c] = list
		}
	}
}
