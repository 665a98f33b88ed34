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

// CaptureDelta copies every dirtied target's current list and empties the
// dirty log — the synchronous part of an incremental checkpoint cut. It
// costs what was touched since the last cut, not the store size, which
// bounds the apply-loop pause, and its copies share one array sized in a
// first pass. The run carries each key once, in dirty-log order: whoever
// encodes or merges it seals it first, off the apply loop. The caller must
// quiesce writers (the replica checkpoint pipeline serializes cuts with
// Apply).
func (s *Store) CaptureDelta() Targets {
	targets, edges := 0, 0
	s.each(func(sh *shard) {
		targets += len(sh.dirty) + len(sh.gone)
		for _, c := range sh.dirty {
			edges += len(sh.list(c))
		}
	})
	out := make(Targets, 0, targets)
	arena := codecutil.Arena[InEdge]{Chunk: edges}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, c := range sh.dirty {
			// A key's first sighting copies it; an emptied one is gone's.
			if j := sh.slot(c); j >= 0 && sh.spans[j].Size&dirtyBit != 0 {
				sh.spans[j].Size &^= dirtyBit
				out = append(out, codecutil.Entry[graph.VertexID, []InEdge]{Key: c, Val: arena.Copy(sh.arena.Window(sh.spans[j]))})
			}
		}
		for _, c := range sh.gone {
			if len(sh.list(c)) == 0 { // else inserted into since, and copied above
				out = append(out, codecutil.Entry[graph.VertexID, []InEdge]{Key: c}) // a deletion, encoded as empty
			}
		}
		sh.dirty, sh.gone = sh.dirty[:0], sh.gone[:0]
		sh.mu.Unlock()
	}
	return out
}
