package dynstore

import (
	"encoding/binary"

	"motifstream/internal/arena"
	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// The binary snapshot format is the durable half of a partition replica's
// checkpoint: a magic header, the format version, then per query vertex C
// its retained in-edge list in arrival order — B as a uvarint and the
// timestamp as a zigzag delta from the previous entry (the stream is
// near-ordered, so deltas stay small). Targets are written in ascending C
// order so equal stores serialize identically. The layout is independent
// of the shard count, so a snapshot restores into a store of any.
//
// The same frame encoding, under a different magic, carries delta
// checkpoint segments (see delta.go): a delta frame is a full replacement
// of one target's list, with an empty list meaning the target was deleted.

// snapMagic identifies the dynstore snapshot format. Version 2 appends a
// CRC32C trailer over the whole frame (magic through payload), so silent
// media corruption is detected at decode instead of composing garbage.
var snapMagic = [8]byte{'M', 'S', 'D', 'S', 'N', 'P', 0, 1}

const snapVersion = 2

// Targets is the D section of a checkpoint segment in memory: a sorted run
// of target → in-edge list in arrival order. In a delta's run an empty list
// records the target's deletion; a base's run holds none.
type Targets = codecutil.Run[graph.VertexID, []InEdge]

// frameMagic returns the magic of the snapshot or the delta container.
func frameMagic(delta bool) [8]byte {
	if delta {
		return deltaMagic
	}
	return snapMagic
}

// appendFrame appends one target's frame: the target, the list length, then
// per entry B and the timestamp's delta from the previous entry.
func appendFrame(b []byte, c graph.VertexID, list []InEdge) []byte {
	b = binary.AppendUvarint(b, uint64(c))
	b = binary.AppendUvarint(b, uint64(len(list)))
	prev := int64(0)
	for _, in := range list {
		b = binary.AppendUvarint(b, uint64(in.B))
		b = binary.AppendVarint(b, in.TS-prev)
		prev = in.TS
	}
	return b
}

// AppendTargets appends a sealed run as a snapshot section or, with delta
// set, a delta section — magic, version, target count, one frame per target,
// closed by a CRC32C trailer over everything before it: how a segment is
// written without instantiating a Store, and how Store.AppendSnapshot
// writes a live one.
func AppendTargets(b []byte, t Targets, delta bool) []byte {
	start := len(b)
	b = codecutil.AppendHeader(b, frameMagic(delta), snapVersion)
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, e := range t {
		b = appendFrame(b, e.Key, e.Val)
	}
	return codecutil.AppendChecksum(b, start)
}

// DecodeTargetsAt parses the snapshot (or delta) section written by
// AppendTargets, which must be the rest of c (every file that embeds one
// puts it last): the CRC32C trailer is verified over the whole section
// before a frame is parsed. No Store is touched — the restore path decodes
// into runs first so delta segments can be merged on top before
// installation. All lists share one arena, so the run is for merging and
// re-encoding; whoever keeps a list long-term copies it out (LoadSnapshot
// does). Malformed input latches an error on c, never panics.
func DecodeTargetsAt(c *codecutil.Cursor, delta bool) Targets {
	c.Checked()
	c.Header(frameMagic(delta), snapVersion)
	// A frame is at least two bytes, and so is an entry.
	count := c.Count("target count", 2)
	out := make(Targets, 0, count)
	arena := codecutil.SectionArena[InEdge](c, 2)
	for i := 0; i < count && c.Err == nil; i++ {
		cid := graph.VertexID(c.U("target id"))
		list := arena.Take(c.Count("target length", 2))
		prev := int64(0)
		for j := range list {
			list[j].B = graph.VertexID(c.U("entry source"))
			prev += c.I("entry timestamp")
			list[j].TS = prev
		}
		out = codecutil.AppendAscending(c, "target id", out, cid, list)
	}
	return out
}

// Targets returns the store's contents as a sealed run whose lists are
// windows of the shards' arenas, gathered under each shard's read lock. The
// windows stay valid only while nothing is applied: for a point-in-time
// snapshot across shards the caller must quiesce writers (the replica
// checkpoint pipeline serializes cuts with Apply, so this holds there).
func (s *Store) Targets() Targets {
	var t Targets
	s.each(func(sh *shard) {
		for j, p := range sh.spans {
			if p.N > 0 {
				t = append(t, codecutil.Entry[graph.VertexID, []InEdge]{Key: sh.keys[j], Val: sh.arena.Window(p)})
			}
		}
	})
	t.Seal()
	return t
}

// AppendSnapshot appends the store's full contents in the versioned binary
// snapshot format, under Targets' quiescence contract.
func (s *Store) AppendSnapshot(b []byte) []byte { return AppendTargets(b, s.Targets(), false) }

// LoadSnapshot replaces the store's contents with a copy of the given run
// (an empty list, a delta's tombstone, installs nothing), every shard locked
// throughout, into arenas sized with the tables in a first pass: an install
// allocates per shard and pins no decode arena. The dirty log is cleared:
// the loaded state is what the checkpoint chain already contains, so the
// next delta cut captures only changes applied after it.
func (s *Store) LoadSnapshot(targets Targets) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.keys, sh.spans, sh.n, sh.edges, sh.arena, sh.dirty, sh.gone = nil, nil, 0, 0, arena.Arena[InEdge]{}, nil, nil
	}
	for _, e := range targets {
		sh := s.shardFor(e.Key)
		sh.n += min(len(e.Val), 1)
		sh.edges += int64(len(e.Val))
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.rehash(tableSize(sh.n))
		sh.arena = arena.Make[InEdge](int(sh.edges))
	}
	for _, e := range targets {
		if len(e.Val) > 0 {
			sh := s.shardFor(e.Key)
			j := sh.slot(e.Key)
			sh.keys[j], sh.spans[j] = e.Key, sh.arena.Append(e.Val)
		}
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// Reset drops every retained edge and releases D's arrays, modeling the
// state loss of a crashed replica; options are kept.
func (s *Store) Reset() { s.LoadSnapshot(nil) }
