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
// A chain of checkpoint files — a base and the delta segments cut after it
// (see delta.go) — is folded without decoding it (Chain): every section is a
// sorted run of full replacement values, so the fold merges the runs' keys
// and copies the winners' bytes. Only the state a restore installs is
// decoded, into a Segment — sorted runs, no locks, no live structures — and
// installed once.

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
// wrote, the user was — candidateLog.install). It is what CaptureDelta
// returns, what the checkpoint writer coalesces queued cuts with (Merge),
// what DecodeBase produces and what LoadState installs.
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

func appendCandidates(b []byte, list []motif.Candidate) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	for _, c := range list {
		b = motif.AppendCandidate(b, c)
	}
	return b
}

// readCandidates reads a list appendCandidates wrote into the arenas or, with
// lists nil, only checks it: the one reader of the layout, which the walk
// checks every list with and decode materialises the walked spans with.
func readCandidates(c *codecutil.Cursor, lists *codecutil.Arena[motif.Candidate], vias *codecutil.Arena[graph.VertexID]) []motif.Candidate {
	n := c.Count("log length", motif.MinCandidateBytes)
	if lists == nil {
		for i := 0; i < n; i++ {
			motif.ReadCandidate(c, nil, nil)
		}
		return nil
	}
	list := lists.Take(n)
	for j := range list {
		motif.ReadCandidate(c, vias, &list[j])
	}
	return list
}

// readCounter reads an item counter.
func readCounter(c *codecutil.Cursor) uint64 { return c.U("item counter") }

// candidateChunk caps one array of the decoder's candidate arena: at ~100
// bytes a candidate it is about the size of a D-entry chunk.
const candidateChunk = 512

// spans is a checkpoint segment as the walk leaves it: per section, a sorted
// run of key → the bytes encoding its value, windows of the file walked.
// Every section holds full replacement values, so a fold merges these runs
// and copies the winners' bytes (Chain); only a state to be installed is
// decoded.
type spans struct {
	sweepClock            int64
	users, items, targets codecutil.Run[graph.VertexID, []byte]
}

// walk reads a whole base file, or with base false a delta file, into spans
// over data, checking everything a decode relies on: the file's CRC32C
// before any of it is parsed and the embedded D section's over its own
// range, the headers, every count against the bytes left, keys ascending in
// every section, every candidate and D frame well formed (a program name's
// bound and the Via count included), and no trailing bytes. Malformed input
// returns an error, never panics.
func walk(data []byte, base bool) (spans, error) {
	var s spans
	prefix := "partition delta"
	if base {
		prefix = "partition checkpoint"
	}
	c := codecutil.NewCursor(data, prefix)
	c.Checked()
	if base {
		c.Header(partMagic, partSnapVersion)
	} else {
		c.Header(deltaMagic, deltaVersion)
		s.sweepClock = c.I("delta sweep clock")
	}
	s.users = codecutil.ReadRun[graph.VertexID](c, "user count", "log user", 2,
		codecutil.SpanOf(func(c *codecutil.Cursor) { readCandidates(c, nil, nil) }))
	s.items = codecutil.ReadRun[graph.VertexID](c, "item count", "item id", 2,
		codecutil.SpanOf(func(c *codecutil.Cursor) { readCounter(c) }))
	if base {
		s.sweepClock, s.targets = core.WalkEngineStateAt(c)
	} else {
		s.targets = dynstore.WalkTargetsAt(c, true)
	}
	return s, c.Done()
}

// decode materialises walked spans into a segment. Its candidate lists share
// one arena and their Via slices another: the segment is for merging,
// fingerprinting and re-encoding, and LoadState copies out what it installs.
// Program names are interned through names, or through a table of the
// segment's own when it is nil.
func (s *spans) decode(names *codecutil.Strings) *Segment {
	if names == nil {
		names = new(codecutil.Strings)
	}
	n := 0
	for _, e := range s.users {
		n += len(e.Val)
	}
	lists := codecutil.Arena[motif.Candidate]{Chunk: min(n/motif.MinCandidateBytes, candidateChunk)}
	vias := codecutil.SectionArena[graph.VertexID](n, 1)
	out := &Segment{
		SweepClock: s.sweepClock,
		Users:      make(codecutil.Run[graph.VertexID, []motif.Candidate], len(s.users)),
		Items:      make(codecutil.Run[graph.VertexID, uint64], len(s.items)),
		Targets:    dynstore.DecodeTargets(s.targets),
	}
	for i, e := range s.users {
		c := codecutil.NewCursor(e.Val, "partition checkpoint")
		c.Intern(names)
		out.Users[i] = codecutil.Entry[graph.VertexID, []motif.Candidate]{Key: e.Key, Val: readCandidates(c, &lists, &vias)}
	}
	for i, e := range s.items {
		out.Items[i] = codecutil.Entry[graph.VertexID, uint64]{Key: e.Key, Val: readCounter(codecutil.NewCursor(e.Val, "partition checkpoint"))}
	}
	return out
}

// appendUserItems appends the segment's candidate-log and item-counter
// sections.
func (s *Segment) appendUserItems(b []byte) []byte {
	b = codecutil.AppendRun(b, s.Users, appendCandidates)
	return codecutil.AppendRun(b, s.Items, binary.AppendUvarint)
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

// DecodeBase parses a whole base checkpoint file written by AppendBase: the
// walk checks it whole, then decode materialises it. Malformed input returns
// an error, never panics. Program names are interned through names when it
// is non-nil: states decoded through one table hold one copy of each.
func DecodeBase(data []byte, names *codecutil.Strings) (*Segment, error) {
	s, err := walk(data, true)
	if err != nil {
		return nil, err
	}
	return s.decode(names), nil
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
	b = codecutil.AppendRun(b, liveRun(p.items.counts), binary.AppendUvarint)
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
