package dynstore

import (
	"bufio"
	"io"
	"slices"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// The binary snapshot format is the durable half of a partition replica's
// checkpoint: a magic header, the format version, then per query vertex C
// its retained in-edge list in arrival order — B as a uvarint and the
// timestamp as a zigzag delta from the previous entry (the stream is
// near-ordered, so deltas stay small). Targets are written in ascending C
// order so equal stores serialize identically. The layout is independent
// of the shard count, so a snapshot restores into a store configured with
// any Shards value.
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

// encodeFrames writes the shared container: magic, version, target count,
// then one frame per target, closed by a CRC32C trailer over everything
// before it. at returns the i-th target, ascending, and its list; it may
// lock per call, so peak extra memory stays at one list.
func encodeFrames(w io.Writer, magic [8]byte, n int, at func(i int) (graph.VertexID, []InEdge)) (int64, error) {
	cw := &codecutil.CountingWriter{W: w}
	hw := &codecutil.HashWriter{W: cw}
	enc := &codecutil.Writer{BW: bufio.NewWriter(hw)}
	enc.PutBytes(magic[:])
	enc.PutU(snapVersion)
	enc.PutU(uint64(n))
	for i := 0; i < n; i++ {
		c, list := at(i)
		enc.PutU(uint64(c))
		enc.PutU(uint64(len(list)))
		prev := int64(0)
		for _, in := range list {
			enc.PutU(uint64(in.B))
			enc.PutI(in.TS - prev)
			prev = in.TS
		}
	}
	if err := enc.Flush(); err != nil {
		return cw.N, err
	}
	return cw.N, codecutil.WriteChecksum(cw, hw.Sum())
}

// EncodeTargets serializes a sealed run as a snapshot section or, with
// delta set, a delta section — how a segment is written without
// instantiating a Store. The bytes are those Store.WriteTo produces for a
// store holding the run.
func EncodeTargets(w io.Writer, t Targets, delta bool) (int64, error) {
	return encodeFrames(w, frameMagic(delta), len(t), func(i int) (graph.VertexID, []InEdge) {
		return t[i].Key, t[i].Val
	})
}

// DecodeTargetsAt parses the snapshot (or delta) section written by
// encodeFrames, which must be the rest of c (every file that embeds one
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

// WriteTo serializes the store's full contents in the versioned binary
// snapshot format, implementing io.WriterTo. Each target list is copied
// under its shard's read lock; for a point-in-time-consistent snapshot
// across shards the caller must quiesce writers (the replica checkpoint
// pipeline serializes cuts with Apply, so this holds there).
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	// Gather and sort only the target IDs for deterministic output, then
	// copy one list at a time under its shard lock while encoding — peak
	// extra memory stays at a single list rather than a full duplicate of
	// D. Lists must be copied because Insert reuses backing arrays in
	// place. A target removed since gathering (only possible if the caller
	// broke the quiescence contract) encodes as an empty list, keeping the
	// frame count consistent.
	var ids []graph.VertexID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for c := range sh.targets {
			ids = append(ids, c)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(ids)
	var list []InEdge
	return encodeFrames(w, snapMagic, len(ids), func(i int) (graph.VertexID, []InEdge) {
		sh := s.shardFor(ids[i])
		sh.mu.RLock()
		list = append(list[:0], sh.targets[ids[i]]...)
		sh.mu.RUnlock()
		return ids[i], list
	})
}

// LoadSnapshot replaces the store's contents with a copy of the given run
// (an empty list, a delta's tombstone, installs nothing). Each list is
// copied into an array of its own: decoded lists share one arena per
// segment, and an installed list lives until its target is swept, so
// keeping the caller's slice would pin a whole segment's arena for one
// surviving target. The dirty sets are cleared: the loaded state is by
// definition what the checkpoint chain already contains, so the next delta
// cut captures only changes applied after it.
func (s *Store) LoadSnapshot(targets Targets) {
	s.Reset()
	for _, e := range targets {
		if len(e.Val) == 0 {
			continue
		}
		sh := s.shardFor(e.Key)
		sh.mu.Lock()
		sh.targets[e.Key] = slices.Clone(e.Val)
		sh.edges += int64(len(e.Val))
		sh.mu.Unlock()
	}
}

// Reset drops every retained edge, modeling the state loss of a crashed
// replica; options are kept.
func (s *Store) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.targets = make(map[graph.VertexID][]InEdge)
		sh.edges = 0
		sh.dirty = make(map[graph.VertexID]struct{})
		sh.mu.Unlock()
	}
}
