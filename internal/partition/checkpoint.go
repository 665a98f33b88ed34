package partition

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

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

// Plausibility bounds for decoding.
const (
	maxSnapUsers   = 1 << 30
	maxSnapPerUser = 1 << 20
	maxSnapVia     = 1 << 16
	maxSnapProgram = 1 << 12
	maxSnapItems   = 1 << 30
)

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

func getCandidate(r *codecutil.Reader) motif.Candidate {
	var c motif.Candidate
	c.User = graph.VertexID(r.U("candidate user"))
	c.Item = graph.VertexID(r.U("candidate item"))
	nVia := r.U("candidate via count")
	if r.Err != nil {
		return c
	}
	if nVia > maxSnapVia {
		r.Fail("candidate via count", fmt.Errorf("implausible count %d", nVia))
		return c
	}
	if nVia > 0 {
		c.Via = make([]graph.VertexID, 0, codecutil.PreallocHint(nVia))
		for i := uint64(0); i < nVia; i++ {
			c.Via = append(c.Via, graph.VertexID(r.U("candidate via")))
		}
	}
	c.Trigger.Src = graph.VertexID(r.U("trigger src"))
	c.Trigger.Dst = graph.VertexID(r.U("trigger dst"))
	c.Trigger.Type = graph.EdgeType(r.U("trigger type"))
	c.Trigger.TS = r.I("trigger ts")
	c.DetectedAtMS = r.I("candidate detected-at")
	c.Program = r.String("candidate program", maxSnapProgram)
	c.Score = math.Float64frombits(r.U("candidate score"))
	return c
}

// sortedVertexKeys returns m's keys ascending for deterministic encoding.
func sortedVertexKeys[V any](m map[graph.VertexID]V) []graph.VertexID {
	keys := make([]graph.VertexID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
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

// readUserItemSections decodes the candidate-log and item-counter halves.
func readUserItemSections(r *codecutil.Reader) (map[graph.VertexID][]motif.Candidate, map[graph.VertexID]uint64, error) {
	nUsers := r.U("user count")
	if r.Err == nil && nUsers > maxSnapUsers {
		return nil, nil, fmt.Errorf("partition: implausible user count %d", nUsers)
	}
	byA := make(map[graph.VertexID][]motif.Candidate, codecutil.PreallocHint(nUsers))
	for i := uint64(0); i < nUsers && r.Err == nil; i++ {
		a := graph.VertexID(r.U("log user"))
		n := r.U("log length")
		if r.Err != nil {
			break
		}
		if n > maxSnapPerUser {
			return nil, nil, fmt.Errorf("partition: implausible log length %d for user %d", n, a)
		}
		list := make([]motif.Candidate, 0, codecutil.PreallocHint(n))
		for j := uint64(0); j < n && r.Err == nil; j++ {
			list = append(list, getCandidate(r))
		}
		byA[a] = list
	}
	nItems := r.U("item count")
	if r.Err == nil && nItems > maxSnapItems {
		return nil, nil, fmt.Errorf("partition: implausible item count %d", nItems)
	}
	counts := make(map[graph.VertexID]uint64, codecutil.PreallocHint(nItems))
	for i := uint64(0); i < nItems && r.Err == nil; i++ {
		it := graph.VertexID(r.U("item id"))
		counts[it] = r.U("item counter")
	}
	if r.Err != nil {
		return nil, nil, r.Err
	}
	return byA, counts, nil
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

// ReadBaseFrom replaces the state with a base checkpoint written by
// WriteBaseTo (or Partition.WriteTo). Malformed input returns an error,
// never panics; the state is unspecified after an error.
func (st *CheckpointState) ReadBaseFrom(rd io.Reader) (int64, error) {
	hr := &codecutil.HashReader{R: codecutil.AsByteReader(rd)}
	br := &codecutil.CountingReader{R: hr}
	r := &codecutil.Reader{BR: br, Prefix: "partition"}

	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return br.N, fmt.Errorf("partition: reading checkpoint magic: %w", err)
	}
	if magic != partMagic {
		return br.N, fmt.Errorf("partition: bad checkpoint magic %q", magic[:])
	}
	if v := r.U("checkpoint version"); r.Err == nil && v != partSnapVersion {
		return br.N, fmt.Errorf("partition: unsupported checkpoint version %d", v)
	}
	users, items, err := readUserItemSections(r)
	if err != nil {
		return br.N, err
	}
	sweep, targets, _, err := core.DecodeEngineState(br)
	if err != nil {
		return br.N, err
	}
	// Payload hash captured before the trailer bytes pass through the
	// hashing reader.
	sum := hr.Sum()
	if err := codecutil.VerifyChecksum(br, sum, "partition checkpoint"); err != nil {
		return br.N, err
	}
	st.SweepClock, st.Users, st.Items, st.Targets = sweep, users, items, targets
	return br.N, nil
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
// recoverable state and taking ownership of the maps. Dirty sets clear:
// the installed state is what the durable chain already contains, so the
// next delta cut captures only changes applied after it.
func (p *Partition) LoadState(st *CheckpointState) {
	p.engine.LoadState(st.SweepClock, st.Targets)
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
