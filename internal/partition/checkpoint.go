package partition

import (
	"bufio"
	"io"
	"math"
	"slices"

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
// Checkpoints are decoded into a CheckpointState — a neutral map
// representation — rather than straight into a live Partition, so the
// recovery path can compose a base with a chain of delta segments (see
// delta.go) before installing the result once.

// partMagic identifies the partition checkpoint format. Version 2 closes
// every base segment with a CRC32C trailer over the whole file (magic
// through the embedded engine section), so a corrupted base is detected
// at compose time and treated like a corrupt delta — fall back, or
// surface the documented error when the log below it is gone — instead
// of composing garbage state.
var partMagic = [8]byte{'M', 'S', 'P', 'A', 'R', 'T', 0, 1}

const partSnapVersion = 2

// maxSnapProgram bounds a decoded program name.
const maxSnapProgram = 1 << 12

// CheckpointState is the neutral, fully-decoded form of a partition
// checkpoint: plain maps, no locks, no live structures. It is what the
// recovery path composes (base plus delta segments, last write wins per
// key) and what the background compactor folds chains into.
type CheckpointState struct {
	// SweepClock is the engine's last D-prune stream time at the cut.
	SweepClock int64
	// Users is the per-user candidate log.
	Users map[graph.VertexID][]motif.Candidate
	// Items is the per-item recommendation counter set.
	Items map[graph.VertexID]uint64
	// Targets is the D store's contents.
	Targets map[graph.VertexID][]dynstore.InEdge
}

// NewCheckpointState returns an empty state — the implicit base a delta
// chain with no compacted base yet composes on top of.
func NewCheckpointState() *CheckpointState {
	return &CheckpointState{
		Users:   make(map[graph.VertexID][]motif.Candidate),
		Items:   make(map[graph.VertexID]uint64),
		Targets: make(map[graph.VertexID][]dynstore.InEdge),
	}
}

func putCandidate(w *codecutil.Writer, c motif.Candidate) {
	w.PutU(uint64(c.User))
	w.PutU(uint64(c.Item))
	w.PutU(uint64(len(c.Via)))
	for _, b := range c.Via {
		w.PutU(uint64(b))
	}
	w.PutU(uint64(c.Trigger.Src))
	w.PutU(uint64(c.Trigger.Dst))
	w.PutU(uint64(c.Trigger.Type))
	w.PutI(c.Trigger.TS)
	w.PutI(c.DetectedAtMS)
	w.PutString(c.Program)
	w.PutU(math.Float64bits(c.Score))
}

// getCandidate decodes one candidate, taking its Via from the segment's
// arena.
func getCandidate(c *codecutil.Cursor, vias *codecutil.Arena[graph.VertexID]) motif.Candidate {
	var cand motif.Candidate
	cand.User = graph.VertexID(c.U("candidate user"))
	cand.Item = graph.VertexID(c.U("candidate item"))
	cand.Via = vias.Take(c.Count("candidate via count", 1))
	for i := range cand.Via {
		cand.Via[i] = graph.VertexID(c.U("candidate via"))
	}
	cand.Trigger.Src = graph.VertexID(c.U("trigger src"))
	cand.Trigger.Dst = graph.VertexID(c.U("trigger dst"))
	cand.Trigger.Type = graph.EdgeType(c.U("trigger type"))
	cand.Trigger.TS = c.I("trigger ts")
	cand.DetectedAtMS = c.I("candidate detected-at")
	cand.Program = c.String("candidate program", maxSnapProgram)
	cand.Score = math.Float64frombits(c.U("candidate score"))
	return cand
}

// sortedVertexKeys returns m's keys ascending for deterministic encoding.
func sortedVertexKeys[V any](m map[graph.VertexID]V) []graph.VertexID {
	keys := make([]graph.VertexID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// writeUsersSection and writeItemsSection encode the candidate-log and
// item-counter halves shared by the base and delta formats. They are
// separate so Partition.WriteTo can stream each directly from the live
// map under its own lock.
func writeUsersSection(cp *codecutil.Writer, users map[graph.VertexID][]motif.Candidate) {
	cp.PutU(uint64(len(users)))
	for _, a := range sortedVertexKeys(users) {
		list := users[a]
		cp.PutU(uint64(a))
		cp.PutU(uint64(len(list)))
		for _, c := range list {
			putCandidate(cp, c)
		}
	}
}

func writeItemsSection(cp *codecutil.Writer, items map[graph.VertexID]uint64) {
	cp.PutU(uint64(len(items)))
	for _, it := range sortedVertexKeys(items) {
		cp.PutU(uint64(it))
		cp.PutU(items[it])
	}
}

// minCandidateBytes is the shortest candidate encoding: ten fields of one
// byte each.
const minCandidateBytes = 10

// readUserItemSections decodes the candidate-log and item-counter halves.
// The segment's Via slices share one arena; the error, if any, is latched
// on c.
func readUserItemSections(c *codecutil.Cursor) (map[graph.VertexID][]motif.Candidate, map[graph.VertexID]uint64) {
	nUsers := c.Count("user count", 2)
	byA := make(map[graph.VertexID][]motif.Candidate, nUsers)
	vias := codecutil.SectionArena[graph.VertexID](c, 1)
	for i := 0; i < nUsers && c.Err == nil; i++ {
		a := graph.VertexID(c.U("log user"))
		list := make([]motif.Candidate, c.Count("log length", minCandidateBytes))
		for j := range list {
			list[j] = getCandidate(c, &vias)
		}
		byA[a] = list
	}
	nItems := c.Count("item count", 2)
	counts := make(map[graph.VertexID]uint64, nItems)
	for i := 0; i < nItems && c.Err == nil; i++ {
		it := graph.VertexID(c.U("item id"))
		counts[it] = c.U("item counter")
	}
	return byA, counts
}

// WriteBaseTo serializes the state as a base checkpoint, implementing the
// same byte format Partition.WriteTo produces.
func (st *CheckpointState) WriteBaseTo(w io.Writer) (int64, error) {
	n, _, err := st.writeBase(w)
	return n, err
}

// writeBase is WriteBaseTo that also returns the payload CRC32C it wrote
// as the file's trailer — the state fingerprint (fingerprint.go).
func (st *CheckpointState) writeBase(w io.Writer) (int64, uint32, error) {
	cw := &codecutil.CountingWriter{W: w}
	hw := &codecutil.HashWriter{W: cw}
	cp := &codecutil.Writer{BW: bufio.NewWriter(hw)}
	cp.PutBytes(partMagic[:])
	cp.PutU(partSnapVersion)
	writeUsersSection(cp, st.Users)
	writeItemsSection(cp, st.Items)
	if err := cp.Flush(); err != nil {
		return cw.N, 0, err
	}
	// Engine section last: its D snapshot dominates the payload and the
	// embedded codec leaves the stream positioned exactly past itself.
	if _, err := core.EncodeEngineState(hw, st.SweepClock, st.Targets); err != nil {
		return cw.N, 0, err
	}
	// File-level CRC32C trailer over everything above, written outside the
	// hash so the trailer verifies the payload, not itself.
	sum := hw.Sum()
	return cw.N, sum, codecutil.WriteChecksum(cw, sum)
}

// DecodeBase parses a whole base checkpoint file written by WriteBaseTo (or
// Partition.WriteTo). The file's CRC32C trailer is verified over the whole
// buffer before anything is parsed, then the embedded D snapshot's over its
// own range. The state's D lists and Via slices share per-segment arenas:
// it is for composing, fingerprinting and re-encoding, and LoadState copies
// out what it installs. Malformed input returns an error, never panics.
func DecodeBase(data []byte) (*CheckpointState, error) {
	c := codecutil.NewCursor(data, "partition checkpoint")
	c.Checked()
	c.Header(partMagic, partSnapVersion)
	st := &CheckpointState{}
	st.Users, st.Items = readUserItemSections(c)
	st.SweepClock, st.Targets = core.DecodeEngineStateAt(c)
	if err := c.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// ReadBaseFrom replaces the state with the base checkpoint that r holds up
// to its end — DecodeBase for callers with a stream. The state is
// untouched after an error.
func (st *CheckpointState) ReadBaseFrom(rd io.Reader) (int64, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return int64(len(data)), err
	}
	fresh, err := DecodeBase(data)
	if err != nil {
		return int64(len(data)), err
	}
	*st = *fresh
	return int64(len(data)), nil
}

// CaptureState copies the partition's complete recoverable state — the
// full-snapshot cut that the delta pipeline replaces, kept as the
// compaction seed and as the measured baseline for the checkpoint-pause
// benchmarks. The caller must not run Apply concurrently.
func (p *Partition) CaptureState() *CheckpointState {
	st := &CheckpointState{SweepClock: p.engine.SweepClock()}

	p.log.mu.RLock()
	st.Users = make(map[graph.VertexID][]motif.Candidate, len(p.log.byA))
	for a, list := range p.log.byA {
		cp := make([]motif.Candidate, len(list))
		copy(cp, list)
		st.Users[a] = cp
	}
	p.log.mu.RUnlock()

	p.items.mu.RLock()
	st.Items = make(map[graph.VertexID]uint64, len(p.items.counts))
	for it, n := range p.items.counts {
		st.Items[it] = n
	}
	p.items.mu.RUnlock()

	st.Targets = p.engine.Dynamic().CaptureSnapshot()
	return st
}

// LoadState installs a composed checkpoint state, replacing all
// recoverable state and taking ownership of the Users and Items maps. What
// a decoded state keeps in per-segment arenas — D lists and Via slices — is
// copied, so nothing installed pins a segment's arena. Dirty sets clear:
// the installed state is what the durable chain already contains, so the
// next delta cut captures only changes applied after it.
func (p *Partition) LoadState(st *CheckpointState) {
	p.engine.LoadState(st.SweepClock, st.Targets)
	for _, list := range st.Users {
		for i := range list {
			list[i].Via = slices.Clone(list[i].Via)
		}
	}
	p.log.mu.Lock()
	p.log.byA = st.Users
	p.log.dirty = make(map[graph.VertexID]struct{})
	p.log.mu.Unlock()
	p.items.mu.Lock()
	p.items.counts = st.Items
	p.items.dirty = make(map[graph.VertexID]struct{})
	p.items.mu.Unlock()
}

// WriteTo serializes the partition's recoverable state, implementing
// io.WriterTo. Sections stream directly from the live structures — the
// candidate log and item counters under their read locks, the engine's D
// store one target list at a time — so peak extra memory stays far below
// a full copy of the partition (CaptureState is the copying path). The
// caller must not run Apply concurrently; concurrent reads are fine.
func (p *Partition) WriteTo(w io.Writer) (int64, error) {
	n, _, err := p.writeBase(w)
	return n, err
}

// writeBase is WriteTo that also returns the payload CRC32C it wrote as
// the trailer — the state fingerprint (fingerprint.go).
func (p *Partition) writeBase(w io.Writer) (int64, uint32, error) {
	cw := &codecutil.CountingWriter{W: w}
	hw := &codecutil.HashWriter{W: cw}
	cp := &codecutil.Writer{BW: bufio.NewWriter(hw)}
	cp.PutBytes(partMagic[:])
	cp.PutU(partSnapVersion)
	p.log.mu.RLock()
	writeUsersSection(cp, p.log.byA)
	p.log.mu.RUnlock()
	p.items.mu.RLock()
	writeItemsSection(cp, p.items.counts)
	p.items.mu.RUnlock()
	if err := cp.Flush(); err != nil {
		return cw.N, 0, err
	}
	// Engine section last: its D snapshot dominates the payload and the
	// embedded codec leaves the stream positioned exactly past itself.
	if _, err := p.engine.WriteTo(hw); err != nil {
		return cw.N, 0, err
	}
	sum := hw.Sum()
	return cw.N, sum, codecutil.WriteChecksum(cw, sum)
}

// ReadFrom restores state written by WriteTo, implementing io.ReaderFrom.
// Existing recoverable state is dropped first, so a failed restore leaves
// the partition empty (crash-fresh) rather than half-merged. Malformed
// input returns an error, never panics.
func (p *Partition) ReadFrom(rd io.Reader) (int64, error) {
	p.Reset()
	st := NewCheckpointState()
	n, err := st.ReadBaseFrom(rd)
	if err != nil {
		return n, err
	}
	p.LoadState(st)
	return n, nil
}

// Reset drops all recoverable state — D contents, the sweep clock, the
// candidate log, and item counters — modeling a crashed replica. The
// partition-filtered S and the programs stay: they are rebuilt from
// configuration, not from the stream.
func (p *Partition) Reset() {
	p.engine.Reset()
	p.log.mu.Lock()
	p.log.byA = make(map[graph.VertexID][]motif.Candidate)
	p.log.dirty = make(map[graph.VertexID]struct{})
	p.log.mu.Unlock()
	p.items.mu.Lock()
	p.items.counts = make(map[graph.VertexID]uint64)
	p.items.dirty = make(map[graph.VertexID]struct{})
	p.items.mu.Unlock()
}
