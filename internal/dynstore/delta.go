package dynstore

import (
	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// deltaMagic identifies the dynstore delta segment format (same version
// and CRC32C framing as the snapshot format). A delta reuses the snapshot
// frame encoding: per dirtied target the full replacement list, with an
// empty list meaning the target was deleted (swept or fully pruned) since
// the previous cut. Full replacement (rather than an operation log) makes
// deltas idempotent and trivially composable — merging segments in cut
// order, newer wins per target, reconstructs the store exactly.
var deltaMagic = [8]byte{'M', 'S', 'D', 'S', 'D', 'L', 0, 1}

// CaptureDelta copies every dirtied target's current list and resets the
// dirty sets — the synchronous part of an incremental checkpoint cut. Its
// cost is proportional to the number of targets touched since the last
// cut, not to the store size, which is what keeps the apply-loop pause
// bounded, and the copies share one array sized in a first pass, so a cut
// allocates a handful of times however many targets it carries. The run
// comes back in dirty-set order: whoever encodes or merges it seals it
// first, off the apply loop. The caller must quiesce writers for a
// consistent cut (the replica checkpoint pipeline serializes cuts with
// Apply).
func (s *Store) CaptureDelta() Targets {
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
	out := make(Targets, 0, targets)
	arena := codecutil.Arena[InEdge]{Chunk: edges}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c := range sh.dirty {
			// absent => deletion, encoded as empty
			out = append(out, codecutil.Entry[graph.VertexID, []InEdge]{Key: c, Val: arena.Copy(sh.targets[c])})
		}
		if len(sh.dirty) > 0 {
			sh.dirty = make(map[graph.VertexID]struct{})
		}
		sh.mu.Unlock()
	}
	return out
}
