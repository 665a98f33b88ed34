package partition

import (
	"encoding/binary"
	"io"

	"motifstream/internal/codecutil"
	"motifstream/internal/core"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// A delta checkpoint segment carries only the state dirtied since the
// previous cut: the sweep clock (absolute, tiny), the changed candidate-log
// users and item counters as full replacements, and the embedded dynstore
// delta. Full replacement per key makes segments idempotent and
// composable: merging a chain in cut order, newer wins per key,
// reconstructs the base-format state exactly. An empty user list records a
// deleted user; no cut writes one, segments on disk may hold one
// (candidateLog.install).

// deltaMagic identifies the partition delta segment format. Version 2
// closes every delta segment with a CRC32C trailer over the whole file,
// matching the base format: corruption is detected at compose time rather
// than trusted into the chain.
var deltaMagic = [8]byte{'M', 'S', 'P', 'D', 'L', 'T', 0, 1}

const deltaVersion = 2

// CaptureDelta copies every dirtied entry's current value and resets the
// dirty sets — the synchronous part of an incremental checkpoint cut,
// captured cheaply on the apply loop and encoded off it by the async
// checkpoint writer. Its cost is proportional to what changed since the
// last cut, not to the partition's total state, which is what keeps the
// apply-loop pause bounded; the runs come back in dirty-set order, unsealed,
// the dirty users still in the log's compact form (Users fills when the
// segment is first encoded, merged or installed).
// The caller must not run Apply concurrently (the replica consume loop
// serializes them).
func (p *Partition) CaptureDelta() *Segment {
	d := &Segment{SweepClock: p.engine.SweepClock(), packed: p.log.capture()}

	p.items.mu.Lock()
	d.Items = make(codecutil.Run[graph.VertexID, uint64], 0, len(p.items.dirty))
	for it := range p.items.dirty {
		d.Items = append(d.Items, codecutil.Entry[graph.VertexID, uint64]{Key: it, Val: p.items.counts[it]})
	}
	if len(p.items.dirty) > 0 {
		p.items.dirty = make(map[graph.VertexID]struct{})
	}
	p.items.mu.Unlock()

	d.Targets = p.engine.Dynamic().CaptureDelta()
	return d
}

// empty reports a tombstone: the empty list a delta carries for a deleted
// key.
func empty[T any](list []T) bool { return len(list) == 0 }

// Merge composes decoded segments given in cut order, oldest first, into
// one. Newer wins per key: a key in several was re-dirtied after the older
// cuts and the newest holds its current value; a key only in an older one
// was untouched since, so its old value is still current; the sweep clock is
// the newest's.
//
// With asBase false the chain is deltas and the result is the delta
// equivalent to writing them one after another: tombstones stay, because a
// segment older still may hold the key. That is how the checkpoint writer
// coalesces queued cuts, and how it carries a cut whose persistence failed
// into the next one — CaptureDelta drained the dirty sets, so the failed
// cut's keys exist nowhere else and dropping it would leave the chain a
// silent hole. With asBase true the chain starts at a base (or at the
// beginning of the stream, whose base is empty) and the result is a base:
// tombstones have nothing left to delete and are dropped. A chain on disk is
// folded by Chain, which applies the same law to the encoded segments.
func Merge(asBase bool, chain ...*Segment) *Segment {
	users := make([]codecutil.Run[graph.VertexID, []motif.Candidate], len(chain))
	items := make([]codecutil.Run[graph.VertexID, uint64], len(chain))
	targets := make([]dynstore.Targets, len(chain))
	out := &Segment{}
	for i, s := range chain {
		s.seal()
		users[i], items[i], targets[i] = s.Users, s.Items, s.Targets
		out.SweepClock = s.SweepClock // ends as the newest's
	}
	var noCandidates func([]motif.Candidate) bool
	var noEdges func([]dynstore.InEdge) bool
	if asBase {
		noCandidates, noEdges = empty[motif.Candidate], empty[dynstore.InEdge]
	}
	out.Users = codecutil.MergeRuns(noCandidates, users...)
	out.Items = codecutil.MergeRuns(nil, items...)
	out.Targets = codecutil.MergeRuns(noEdges, targets...)
	return out
}

// Chain folds a checkpoint chain's segment files into a base without
// decoding them: the compactor's fold and the restore plan's. Every segment
// Add takes is walked — each check a decode makes — into runs of value spans
// over its file's bytes, and AppendBase merges the runs by Merge's law and
// appends the winning spans as they are. The zero Chain is the empty one.
type Chain struct {
	segs []spans
}

// Add walks a segment file, a base or a delta, onto the end of the chain; a
// base supersedes everything older. A segment that fails the walk returns
// its error and adds nothing, so the chain stays the fold of the segments
// before it (the segment-at-a-time fallback). The chain keeps windows of
// data.
func (ch *Chain) Add(data []byte, base bool) error {
	s, err := walk(data, base)
	if err != nil {
		return err
	}
	if base {
		ch.segs = ch.segs[:0]
	}
	ch.segs = append(ch.segs, s)
	return nil
}

// AppendBase appends the base the chain composes to, the bytes
// Merge(true, decoded chain...).AppendBase appends: newest wins per key, a
// span encoding an empty list is a tombstone and dropped, and the winners'
// bytes follow the base header, then the engine header with the newest
// sweep clock and a snapshot section, each section closed by its CRC32C.
func (ch *Chain) AppendBase(b []byte) []byte {
	users := make([]codecutil.Run[graph.VertexID, []byte], len(ch.segs))
	items := make([]codecutil.Run[graph.VertexID, []byte], len(ch.segs))
	targets := make([]dynstore.Spans, len(ch.segs))
	var sweepClock int64
	for i, s := range ch.segs {
		users[i], items[i], targets[i] = s.users, s.items, s.targets
		sweepClock = s.sweepClock // ends as the newest's
	}
	start := len(b)
	b = codecutil.AppendHeader(b, partMagic, partSnapVersion)
	b = codecutil.AppendRun(b, codecutil.MergeRuns(emptySpan, users...), codecutil.AppendSpan)
	b = codecutil.AppendRun(b, codecutil.MergeRuns(nil, items...), codecutil.AppendSpan)
	b = dynstore.AppendSpans(core.AppendEngineHeader(b, sweepClock), codecutil.MergeRuns(emptySpan, targets...), false)
	return codecutil.AppendChecksum(b, start)
}

// emptySpan reports a tombstone among spans: the encoding of an empty list,
// whose count comes first.
func emptySpan(span []byte) bool {
	n, _ := binary.Uvarint(span)
	return n == 0
}

// AppendDelta appends the segment as a delta segment: magic, version, the
// sweep clock, the candidate-log and item-counter sections and the embedded
// D delta section, closed by a CRC32C over everything before it. Keys are
// written in ascending order so equal deltas serialize identically.
func (s *Segment) AppendDelta(b []byte) []byte {
	s.seal()
	start := len(b)
	b = binary.AppendVarint(codecutil.AppendHeader(b, deltaMagic, deltaVersion), s.SweepClock)
	b = dynstore.AppendTargets(s.appendUserItems(b), s.Targets, true)
	return codecutil.AppendChecksum(b, start)
}

// WriteTo writes AppendDelta's bytes, implementing io.WriterTo.
func (s *Segment) WriteTo(w io.Writer) (int64, error) {
	return codecutil.WriteTo(w, s.AppendDelta(nil))
}
