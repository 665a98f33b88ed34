package dynstore

import (
	"bufio"
	"fmt"
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

// encodeFrames writes the shared container: magic, version, target count,
// then one frame per id in the given order, closed by a CRC32C trailer
// over everything before it. get returns the list for an id; it may lock
// per call, so peak extra memory stays at one list.
func encodeFrames(w io.Writer, magic [8]byte, ids []graph.VertexID, get func(graph.VertexID) []InEdge) (int64, error) {
	cw := &codecutil.CountingWriter{W: w}
	hw := &codecutil.HashWriter{W: cw}
	enc := &codecutil.Writer{BW: bufio.NewWriter(hw)}
	enc.PutBytes(magic[:])
	enc.PutU(snapVersion)
	enc.PutU(uint64(len(ids)))
	for _, c := range ids {
		list := get(c)
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

// decodeFrames parses the container written by encodeFrames, which must be
// the rest of c (every file that embeds one puts it last): the CRC32C
// trailer is verified over the whole section before a frame is parsed. All
// lists share one arena, so the map is for composing and re-encoding;
// whoever keeps a list long-term copies it out (LoadSnapshot does).
// Malformed input latches an error on c, never panics.
func decodeFrames(c *codecutil.Cursor, magic [8]byte) map[graph.VertexID][]InEdge {
	c.Checked()
	c.Header(magic, snapVersion)
	// A frame is at least two bytes, and so is an entry.
	count := c.Count("target count", 2)
	out := make(map[graph.VertexID][]InEdge, count)
	arena := codecutil.SectionArena[InEdge](c, 2)
	var last graph.VertexID
	for i := 0; i < count && c.Err == nil; i++ {
		cid := graph.VertexID(c.U("target id"))
		list := arena.Take(c.Count("target length", 2))
		prev := int64(0)
		for j := range list {
			list[j].B = graph.VertexID(c.U("entry source"))
			prev += c.I("entry timestamp")
			list[j].TS = prev
		}
		// Encoders write targets ascending, which makes a repeated target
		// visible without a lookup.
		if i > 0 && cid <= last {
			c.Fail("target id", fmt.Errorf("target %d after %d: not ascending", cid, last))
		}
		out[cid], last = list, cid
	}
	return out
}

// sortedIDs returns the map's keys in ascending order for deterministic
// output.
func sortedIDs(targets map[graph.VertexID][]InEdge) []graph.VertexID {
	ids := make([]graph.VertexID, 0, len(targets))
	for c := range targets {
		ids = append(ids, c)
	}
	slices.Sort(ids)
	return ids
}

// EncodeSnapshot serializes a captured target map in the snapshot format —
// the checkpoint compactor's path for writing a composed base without
// instantiating a Store.
func EncodeSnapshot(w io.Writer, targets map[graph.VertexID][]InEdge) (int64, error) {
	return encodeFrames(w, snapMagic, sortedIDs(targets), func(c graph.VertexID) []InEdge {
		return targets[c]
	})
}

// DecodeSnapshotAt parses the snapshot section that is the rest of c into
// a target map without touching any Store — the restore path decodes into
// a neutral representation first so delta segments can be composed on top
// before installation. The error, if any, is latched on c.
func DecodeSnapshotAt(c *codecutil.Cursor) map[graph.VertexID][]InEdge {
	return decodeFrames(c, snapMagic)
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
	return encodeFrames(w, snapMagic, ids, func(c graph.VertexID) []InEdge {
		sh := s.shardFor(c)
		sh.mu.RLock()
		list = append(list[:0], sh.targets[c]...)
		sh.mu.RUnlock()
		return list
	})
}

// ReadFrom replaces the store's contents with a snapshot previously
// produced by WriteTo, implementing io.ReaderFrom. It reads r to its end:
// the snapshot must be all of it. The store's own options (retention,
// caps, shard count) are kept; only the data is restored. Malformed or
// truncated input returns an error and leaves the store emptied, never
// panics.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	data, err := io.ReadAll(r)
	if err == nil {
		c := codecutil.NewCursor(data, "dynstore")
		targets := DecodeSnapshotAt(c)
		if err = c.Done(); err == nil {
			s.LoadSnapshot(targets)
			return int64(len(data)), nil
		}
	}
	// Honor the contract: a failed restore leaves the store emptied, not
	// half-populated.
	s.Reset()
	return int64(len(data)), err
}

// LoadSnapshot replaces the store's contents with a copy of the given
// target map. Each list is copied into an array of its own: decoded lists
// share one arena per segment, and an installed list lives until its
// target is swept, so keeping the caller's slice would pin a whole
// segment's arena for one surviving target. The dirty sets are cleared:
// the loaded state is by definition what the checkpoint chain already
// contains, so the next delta cut captures only changes applied after it.
func (s *Store) LoadSnapshot(targets map[graph.VertexID][]InEdge) {
	s.Reset()
	for c, list := range targets {
		if len(list) == 0 {
			continue
		}
		sh := s.shardFor(c)
		sh.mu.Lock()
		sh.targets[c] = slices.Clone(list)
		sh.edges += int64(len(list))
		sh.mu.Unlock()
	}
}

// CaptureSnapshot copies the store's full contents into a fresh target
// map — the "full cut" baseline that delta checkpoints replace. Unlike
// CaptureDelta it does not drain the dirty sets, so it never perturbs an
// ongoing incremental chain.
func (s *Store) CaptureSnapshot() map[graph.VertexID][]InEdge {
	out := make(map[graph.VertexID][]InEdge)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for c, list := range sh.targets {
			cp := make([]InEdge, len(list))
			copy(cp, list)
			out[c] = cp
		}
		sh.mu.RUnlock()
	}
	return out
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
