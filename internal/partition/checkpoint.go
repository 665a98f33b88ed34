package partition

import (
	"encoding/binary"

	"motifstream/internal/codecutil"
	"motifstream/internal/core"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// A partition base checkpoint is the durable unit of replica recovery: the
// read-path state the broker serves — the per-user candidate log and the
// per-item recommendation counters — followed by the engine section (sweep
// clock + D snapshot). S is deliberately absent: it is the offline
// pipeline's product and is rebuilt from the static edge set (or reloaded
// from a newer offline build) on restore, exactly as a production replica
// reloads the latest S snapshot on boot.
//
// Checkpoints are decoded into a Segment — sorted runs, no locks, no live
// structures — rather than straight into a live Partition, so the recovery
// path can merge a base with a chain of delta segments (see delta.go)
// before installing the result once.

// partMagic identifies the partition checkpoint format. Version 2 closes
// every base segment with a CRC32C trailer over the whole file (magic
// through the embedded engine section), so a corrupted base is detected
// at compose time and treated like a corrupt delta — fall back, or
// surface the documented error when the log below it is gone — instead
// of composing garbage state.
var partMagic = [8]byte{'M', 'S', 'P', 'A', 'R', 'T', 0, 1}

const partSnapVersion = 2

// Segment is the one in-memory form of a checkpoint segment, base or
// delta: per section, a sorted run of key → full replacement value. A base
// holds a partition's whole recoverable state and no empty list; a delta
// holds what one cut dirtied, and an empty list in it is a tombstone: the
// target was swept since the previous cut (or, in a segment an older binary
// wrote, the user was — candidateLog.install). It is
// what CaptureDelta returns, what both decoders produce, what Merge
// composes and the background compactor folds chains into, and what
// LoadState installs.
type Segment struct {
	// SweepClock is the engine's last D-prune stream time at the cut.
	SweepClock int64
	// Users is the per-user candidate log.
	Users codecutil.Run[graph.VertexID, []motif.Candidate]
	// Items is the per-item recommendation counter set.
	Items codecutil.Run[graph.VertexID, uint64]
	// Targets is the D store's contents.
	Targets dynstore.Targets

	// packed holds a captured segment's users until seal puts them in Users.
	packed packedUsers
}

// Len returns the number of keys across all sections — for a captured
// delta, the dirtied keys the cut pause is proportional to.
func (s *Segment) Len() int {
	return len(s.Users) + len(s.packed.users) + len(s.Items) + len(s.Targets)
}

// seal expands the users a capture took in the log's compact form and sorts
// the runs it appended in dirty-set order. Every encode, merge and install
// starts with it, so both run wherever the segment is first consumed — the
// checkpoint writer's goroutine — never on the apply loop.
func (s *Segment) seal() {
	if s.packed.users != nil {
		s.Users, s.packed = s.packed.expand(), packedUsers{}
	}
	s.Users.Seal()
	s.Items.Seal()
	s.Targets.Seal()
}

// liveRun views a live map as a sealed run, so the live partition is
// encoded by the same section encoder as a segment. The values are the map's
// own, not copies: the caller holds the map's lock while the run is in use.
func liveRun[V any](m map[graph.VertexID]V) codecutil.Run[graph.VertexID, V] {
	r := make(codecutil.Run[graph.VertexID, V], 0, len(m))
	for k, v := range m {
		r = append(r, codecutil.Entry[graph.VertexID, V]{Key: k, Val: v})
	}
	r.Seal()
	return r
}

// appendRun appends the candidate-log or the item-counter section shared by
// the base and delta formats: the key count, then per key, ascending so
// equal states serialize identically, the key and whatever put appends.
func appendRun[V any](b []byte, r codecutil.Run[graph.VertexID, V], put func([]byte, V) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, e := range r {
		b = put(binary.AppendUvarint(b, uint64(e.Key)), e.Val)
	}
	return b
}

func appendCandidates(b []byte, list []motif.Candidate) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	for _, c := range list {
		b = motif.AppendCandidate(b, c)
	}
	return b
}

// candidateChunk caps one array of the decoder's candidate arena: at ~100
// bytes a candidate it is about the size of a D-entry chunk.
const candidateChunk = 512

// readUserItemSections decodes the candidate-log and item-counter sections
// into runs, rejecting keys that do not ascend. The segment's candidate
// lists share one arena and its Via slices another; the error, if any, is
// latched on c.
func readUserItemSections(c *codecutil.Cursor, s *Segment) {
	nUsers := c.Count("user count", 2)
	s.Users = make(codecutil.Run[graph.VertexID, []motif.Candidate], 0, nUsers)
	lists := codecutil.Arena[motif.Candidate]{Chunk: min(c.Len()/motif.MinCandidateBytes, candidateChunk)}
	vias := codecutil.SectionArena[graph.VertexID](c, 1)
	for i := 0; i < nUsers && c.Err == nil; i++ {
		a := graph.VertexID(c.U("log user"))
		list := lists.Take(c.Count("log length", motif.MinCandidateBytes))
		for j := range list {
			motif.ReadCandidate(c, &vias, &list[j])
		}
		s.Users = codecutil.AppendAscending(c, "log user", s.Users, a, list)
	}
	nItems := c.Count("item count", 2)
	s.Items = make(codecutil.Run[graph.VertexID, uint64], 0, nItems)
	for i := 0; i < nItems && c.Err == nil; i++ {
		it := graph.VertexID(c.U("item id"))
		s.Items = codecutil.AppendAscending(c, "item id", s.Items, it, c.U("item counter"))
	}
}

// appendUserItems appends the segment's candidate-log and item-counter
// sections.
func (s *Segment) appendUserItems(b []byte) []byte {
	b = appendRun(b, s.Users, appendCandidates)
	return appendRun(b, s.Items, binary.AppendUvarint)
}

// AppendBase appends the segment as a base checkpoint: magic and version,
// the candidate-log and item-counter sections, the embedded engine section
// (its D section last: it dominates the payload), closed by the CRC32C of
// everything before it — the state fingerprint (fingerprint.go). The bytes
// are those Partition.AppendBase appends for a partition holding the state:
// the two differ only in where their runs come from, so equal states cannot
// serialize differently.
func (s *Segment) AppendBase(b []byte) []byte {
	s.seal()
	start := len(b)
	b = s.appendUserItems(codecutil.AppendHeader(b, partMagic, partSnapVersion))
	b = core.AppendEngineState(b, s.SweepClock, s.Targets)
	return codecutil.AppendChecksum(b, start)
}

// DecodeBase parses a whole base checkpoint file written by AppendBase. The
// file's CRC32C trailer is verified over the whole buffer before anything is
// parsed, then the embedded D snapshot's over its own range. The segment's
// lists and Via slices share per-section arenas: it is for merging,
// fingerprinting and re-encoding, and LoadState copies out what it installs.
// Malformed input returns an error, never panics. Program names are interned
// through names when it is non-nil, as in ParseDelta.
func DecodeBase(data []byte, names *codecutil.Strings) (*Segment, error) {
	c := codecutil.NewCursor(data, "partition checkpoint")
	c.Intern(names)
	c.Checked()
	c.Header(partMagic, partSnapVersion)
	s := &Segment{}
	readUserItemSections(c, s)
	s.SweepClock, s.Targets = core.DecodeEngineStateAt(c)
	if err := c.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadState installs a composed segment, replacing all recoverable state (an
// empty list, a delta's tombstone, installs nothing, here as in the store).
// Everything installed is copied — candidates and their Via elements into
// the log's own arrays, D lists in the store — because a decoded segment
// keeps them in per-section arenas, and one installed list would pin its
// whole arena for as long as that user or target lives. Dirty sets clear:
// the installed state is what the durable chain already contains, so the
// next delta cut captures only changes applied after it.
func (p *Partition) LoadState(s *Segment) {
	s.seal()
	p.engine.LoadState(s.SweepClock, s.Targets)
	p.log.install(s.Users)
	counts := make(map[graph.VertexID]uint64, len(s.Items))
	for _, e := range s.Items {
		counts[e.Key] = e.Val
	}
	p.items.mu.Lock()
	p.items.counts = counts
	p.items.dirty = make(map[graph.VertexID]struct{})
	p.items.mu.Unlock()
}

// AppendBase appends the partition's recoverable state as a base
// checkpoint, Segment.AppendBase's bytes. Sections are encoded directly from
// the live structures — the candidate log's runs and the item counters under
// their read locks, the engine's D store one target list at a time — so no
// copy of the state is made besides the encoding. The caller must not run
// Apply concurrently; concurrent reads are fine.
func (p *Partition) AppendBase(b []byte) []byte {
	start := len(b)
	b = p.log.appendTo(codecutil.AppendHeader(b, partMagic, partSnapVersion))
	p.items.mu.RLock()
	b = appendRun(b, liveRun(p.items.counts), binary.AppendUvarint)
	p.items.mu.RUnlock()
	b = p.engine.AppendState(b)
	return codecutil.AppendChecksum(b, start)
}

// Reset drops all recoverable state — D contents, the sweep clock, the
// candidate log, and item counters — modeling a crashed replica. The
// partition-filtered S and the programs stay: they are rebuilt from
// configuration, not from the stream.
func (p *Partition) Reset() {
	p.engine.Reset()
	p.log.install(nil)
	p.items.mu.Lock()
	p.items.counts = make(map[graph.VertexID]uint64)
	p.items.dirty = make(map[graph.VertexID]struct{})
	p.items.mu.Unlock()
}
