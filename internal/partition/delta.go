package partition

import (
	"bufio"
	"io"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// A delta checkpoint segment carries only the state dirtied since the
// previous cut: the sweep clock (absolute, tiny), the changed candidate-log
// users and item counters as full replacements, and the embedded dynstore
// delta. Full replacement per key makes segments idempotent and
// composable: applying a chain in cut order, last write wins per key,
// reconstructs the base-format state exactly. An empty user list records a
// deletion (SweepBefore dropped the user).

// deltaMagic identifies the partition delta segment format. Version 2
// closes every delta segment with a CRC32C trailer over the whole file,
// matching the base format: corruption is detected at compose time rather
// than trusted into the chain.
var deltaMagic = [8]byte{'M', 'S', 'P', 'D', 'L', 'T', 0, 1}

const deltaVersion = 2

// Delta is one cut's worth of dirtied partition state, captured cheaply
// on the apply loop and encoded off it by the async checkpoint writer.
type Delta struct {
	// SweepClock is the engine's last D-prune stream time at the cut.
	SweepClock int64
	// Users holds full replacement lists for dirtied users; empty = delete.
	Users map[graph.VertexID][]motif.Candidate
	// Items holds current counts for dirtied items.
	Items map[graph.VertexID]uint64
	// Dynamic is the D store's dirtied-target delta.
	Dynamic dynstore.Delta
}

// Len returns the number of dirtied keys across all sections — the size
// the cut pause is proportional to.
func (d *Delta) Len() int {
	return len(d.Users) + len(d.Items) + d.Dynamic.Len()
}

// CaptureDelta copies every dirtied entry's current value and resets the
// dirty sets — the synchronous part of an incremental checkpoint cut. Its
// cost is proportional to what changed since the last cut, not to the
// partition's total state, which is what keeps the apply-loop pause
// bounded. The caller must not run Apply concurrently (the replica
// consume loop serializes them).
func (p *Partition) CaptureDelta() *Delta {
	d := &Delta{SweepClock: p.engine.SweepClock()}

	p.log.mu.Lock()
	d.Users = make(map[graph.VertexID][]motif.Candidate, len(p.log.dirty))
	logged := 0
	for a := range p.log.dirty {
		logged += len(p.log.byA[a])
	}
	lists := codecutil.Arena[motif.Candidate]{Chunk: logged}
	for a := range p.log.dirty {
		d.Users[a] = lists.Copy(p.log.byA[a]) // absent => deletion, encoded as empty
	}
	if len(p.log.dirty) > 0 {
		p.log.dirty = make(map[graph.VertexID]struct{})
	}
	p.log.mu.Unlock()

	p.items.mu.Lock()
	d.Items = make(map[graph.VertexID]uint64, len(p.items.dirty))
	for it := range p.items.dirty {
		d.Items[it] = p.items.counts[it]
	}
	if len(p.items.dirty) > 0 {
		p.items.dirty = make(map[graph.VertexID]struct{})
	}
	p.items.mu.Unlock()

	d.Dynamic = p.engine.Dynamic().CaptureDelta()
	return d
}

// MergeOlder folds a previously captured but never persisted delta into
// d. CaptureDelta drains the dirty sets, so a cut whose persistence
// failed must be carried into the next segment or its keys would be
// silently missing from the chain. Newer wins per key: a key present in
// both was re-dirtied after the old capture and d already holds its
// current value; a key only in old was untouched since, so its old value
// is still current.
func (d *Delta) MergeOlder(old *Delta) {
	for a, list := range old.Users {
		if _, ok := d.Users[a]; !ok {
			d.Users[a] = list
		}
	}
	for it, count := range old.Items {
		if _, ok := d.Items[it]; !ok {
			d.Items[it] = count
		}
	}
	for c, list := range old.Dynamic.Targets {
		if _, ok := d.Dynamic.Targets[c]; !ok {
			d.Dynamic.Targets[c] = list
		}
	}
}

// WriteTo serializes the delta segment, implementing io.WriterTo. Keys are
// written in ascending order so equal deltas serialize identically.
func (d *Delta) WriteTo(w io.Writer) (int64, error) {
	cw := &codecutil.CountingWriter{W: w}
	hw := &codecutil.HashWriter{W: cw}
	cp := &codecutil.Writer{BW: bufio.NewWriter(hw)}
	cp.PutBytes(deltaMagic[:])
	cp.PutU(deltaVersion)
	cp.PutI(d.SweepClock)
	writeUsersSection(cp, d.Users)
	writeItemsSection(cp, d.Items)
	if err := cp.Flush(); err != nil {
		return cw.N, err
	}
	if _, err := d.Dynamic.WriteTo(hw); err != nil {
		return cw.N, err
	}
	return cw.N, codecutil.WriteChecksum(cw, hw.Sum())
}

// ParseDelta parses a whole delta segment file written by WriteTo, CRC32C
// first like DecodeBase, into an arena-backed Delta.
func ParseDelta(data []byte) (*Delta, error) {
	c := codecutil.NewCursor(data, "partition delta")
	c.Checked()
	c.Header(deltaMagic, deltaVersion)
	d := &Delta{SweepClock: c.I("delta sweep clock")}
	d.Users, d.Items = readUserItemSections(c)
	d.Dynamic = dynstore.DecodeDeltaAt(c)
	if err := c.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeDelta parses the delta segment that rd holds up to its end.
func DecodeDelta(rd io.Reader) (*Delta, int64, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, int64(len(data)), err
	}
	d, err := ParseDelta(data)
	return d, int64(len(data)), err
}

// ApplyDelta decodes one delta segment and folds it into the state — the
// restore path's chain composition step. The segment is fully decoded
// before any mutation, so a corrupt segment returns an error and leaves
// the state exactly as it was (enabling segment-at-a-time fallback).
func (st *CheckpointState) ApplyDelta(data []byte) error {
	d, err := ParseDelta(data)
	if err != nil {
		return err
	}
	st.SweepClock = d.SweepClock
	for a, list := range d.Users {
		if len(list) == 0 {
			delete(st.Users, a)
		} else {
			st.Users[a] = list
		}
	}
	for it, count := range d.Items {
		st.Items[it] = count
	}
	d.Dynamic.ApplyTo(st.Targets)
	return nil
}

// ApplyDeltaFrom is ApplyDelta for callers with a stream: it reads rd to
// its end.
func (st *CheckpointState) ApplyDeltaFrom(rd io.Reader) (int64, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return int64(len(data)), err
	}
	return int64(len(data)), st.ApplyDelta(data)
}
