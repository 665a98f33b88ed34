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

// appendList appends one target's list after its id: the length, then per
// entry B and the timestamp's delta from the previous entry.
func appendList(b []byte, list []InEdge) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	prev := int64(0)
	for _, in := range list {
		b = binary.AppendUvarint(b, uint64(in.B))
		b = binary.AppendVarint(b, in.TS-prev)
		prev = in.TS
	}
	return b
}

// readList reads a list appendList wrote into arena or, with arena nil,
// only checks it. It is the one reader of the layout: the walk checks every
// frame with it, and DecodeTargets materialises the spans the walk kept.
func readList(c *codecutil.Cursor, arena *codecutil.Arena[InEdge]) []InEdge {
	// An entry is at least two bytes.
	n := c.Count("target length", 2)
	var list []InEdge
	if arena != nil {
		list = arena.Take(n)
	}
	prev := int64(0)
	for j := 0; j < n; j++ {
		b := graph.VertexID(c.U("entry source"))
		prev += c.I("entry timestamp")
		if list != nil {
			list[j] = InEdge{B: b, TS: prev}
		}
	}
	return list
}

// Spans is a D section as the walk leaves it: target → the bytes encoding
// its list, windows of the file that was walked.
type Spans = codecutil.Run[graph.VertexID, []byte]

// appendSection appends a snapshot section or, with delta set, a delta
// section — magic, version, target count, one frame per target (its id, then
// what put appends), closed by a CRC32C trailer over everything before it.
func appendSection[V any](b []byte, r codecutil.Run[graph.VertexID, V], delta bool, put func([]byte, V) []byte) []byte {
	start := len(b)
	b = codecutil.AppendRun(codecutil.AppendHeader(b, frameMagic(delta), snapVersion), r, put)
	return codecutil.AppendChecksum(b, start)
}

// AppendTargets appends a sealed run as a snapshot or delta section: how a
// segment is written without instantiating a Store, and how
// Store.AppendSnapshot writes a live one.
func AppendTargets(b []byte, t Targets, delta bool) []byte {
	return appendSection(b, t, delta, appendList)
}

// AppendSpans appends walked spans as a snapshot or delta section: how a
// fold writes the lists it merged without decoding them. For spans a walk
// of AppendTargets' bytes kept, the bytes are AppendTargets'.
func AppendSpans(b []byte, s Spans, delta bool) []byte {
	return appendSection(b, s, delta, codecutil.AppendSpan)
}

// WalkTargetsAt reads the snapshot (or delta) section AppendTargets wrote,
// which must be the rest of c (every file that embeds one puts it last),
// into spans over c's bytes: the CRC32C trailer is verified over the whole
// section before a frame is read, then every frame is checked — ids
// ascending, counts bounded by the bytes left — and none decoded. Malformed
// input latches an error on c, never panics.
func WalkTargetsAt(c *codecutil.Cursor, delta bool) Spans {
	c.Checked()
	c.Header(frameMagic(delta), snapVersion)
	// A frame is at least two bytes.
	return codecutil.ReadRun[graph.VertexID](c, "target count", "target id", 2,
		codecutil.SpanOf(func(c *codecutil.Cursor) { readList(c, nil) }))
}

// DecodeTargets materialises walked spans into a run of lists. No Store is
// touched — the restore path decodes into runs so an installation is one
// pass. All lists share one arena, so the run is for merging and
// re-encoding; whoever keeps a list long-term copies it out (LoadSnapshot
// does).
func DecodeTargets(s Spans) Targets {
	n := 0
	for _, e := range s {
		n += len(e.Val)
	}
	out := make(Targets, len(s))
	arena := codecutil.SectionArena[InEdge](n, 2)
	for i, e := range s {
		out[i] = codecutil.Entry[graph.VertexID, []InEdge]{Key: e.Key, Val: readList(codecutil.NewCursor(e.Val, "dynstore snapshot"), &arena)}
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
