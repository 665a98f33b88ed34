package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"motifstream/internal/audit"
	"motifstream/internal/codecutil"
	"motifstream/internal/delivery"
	"motifstream/internal/partition"
)

// On-disk layout of the incremental checkpoint pipeline (see
// docs/DURABILITY.md for the full contract):
//
//	<CheckpointDir>/
//	  delivery.state            delivery pipeline dedup LRU + fatigue budgets
//	  p000-r00/                 one directory per replica
//	    MANIFEST                ordered segment list (atomic rename)
//	    base-00000007.seg       compacted base checkpoint
//	    delta-00000008.seg      delta segments cut since the base
//	    delta-00000009.seg
//
// Every segment is recorded in the MANIFEST together with the firehose
// offset its cut corresponds to (all envelopes below it are included).
// The ordering is crash-safe: a segment file is written and fsynced
// before the manifest that references it is renamed into place, so the
// manifest never names a missing or partial segment; conversely a crash
// between the two leaves an orphan segment no manifest names, and a crash
// between a compaction's manifest rename and its removals leaves the old
// deltas below the base. Both are inert, and both go when the replica's
// writer next starts: sweepOrphanSegments removes every segment file the
// loaded manifest does not name.
// The gating id protects offset integrity: it is the firehose WAL's
// persistent identity, and chains survive process restarts exactly as long
// as the log that assigned their offsets; integrity within a segment is
// the CRC32C trailer's job (verified at every compose).

// ErrRecoveryDisabled is returned by KillReplica/RestoreReplica when the
// cluster was built without Config.CheckpointDir.
var ErrRecoveryDisabled = errors.New("cluster: recovery requires Config.CheckpointDir")

// manifestMagic identifies the checkpoint manifest format, version 1.
var manifestMagic = [8]byte{'M', 'S', 'M', 'A', 'N', 'F', 0, 1}

// deliveryStateMagic identifies the delivery pipeline state file header,
// version 1. The header (magic + version + gating id) wraps the
// pipeline's own CRC32C-framed snapshot (delivery.Pipeline.AppendState).
var deliveryStateMagic = [8]byte{'M', 'S', 'D', 'L', 'S', 'T', 0, 1}

const (
	manifestVersion      = 1
	deliveryStateVersion = 1

	segKindBase  = 0
	segKindDelta = 1

	// ckptQueueDepth is the async writer's job buffer: cuts beyond it
	// block the apply loop (backpressure) until the writer drains.
	ckptQueueDepth = 2

	// deliveryStatePersistEvery is how many processed candidate batches
	// elapse between cuts of the delivery pipeline's suppression state
	// (dedup LRU + fatigue budgets). A cut copies the whole LRU, and
	// staleness between cuts only re-exposes the documented repeated-pair
	// tolerance after a hard crash — a clean Shutdown always cuts a final
	// exact snapshot.
	deliveryStatePersistEvery = 256
)

// segmentRef names one durable checkpoint segment: its kind, the
// monotonic sequence number its file name derives from, and the firehose
// offset its cut corresponds to (every envelope with Offset < offset is
// folded in).
type segmentRef struct {
	kind   uint8
	seq    uint64
	offset uint64
}

// manifest is a replica's durable chain: at most one leading base
// followed by delta segments in cut order (ascending offsets). nextSeq
// stays monotonic across compactions so file names never collide.
type manifest struct {
	segs    []segmentRef
	nextSeq uint64
}

// floorOffset returns the oldest offset this chain can restore to — the
// base's offset, or zero while the chain still composes from the implicit
// empty base (no compaction yet). Log truncation must stay below the
// minimum floor across replicas.
func (m *manifest) floorOffset() uint64 {
	if len(m.segs) > 0 && m.segs[0].kind == segKindBase {
		return m.segs[0].offset
	}
	return 0
}

func (m *manifest) deltaCount() int {
	n := 0
	for _, s := range m.segs {
		if s.kind == segKindDelta {
			n++
		}
	}
	return n
}

func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

func segmentPath(dir string, ref segmentRef) string {
	return filepath.Join(dir, segmentName(ref))
}

// segmentName is a segment's file name: base-%08d.seg or delta-%08d.seg.
func segmentName(ref segmentRef) string {
	kind := "delta"
	if ref.kind == segKindBase {
		kind = "base"
	}
	return fmt.Sprintf("%s-%08d.seg", kind, ref.seq)
}

// isSegmentName reports whether name is exactly one segmentName can make.
func isSegmentName(name string) bool {
	stem, ok := strings.CutSuffix(name, ".seg")
	if !ok {
		return false
	}
	kind, digits, _ := strings.Cut(stem, "-")
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return false
	}
	ref := segmentRef{kind: segKindDelta, seq: seq}
	if kind == "base" {
		ref.kind = segKindBase
	}
	return segmentName(ref) == name
}

// sweepOrphanSegments removes the segment files in a replica directory that
// man, its loaded manifest, does not name: a segment whose manifest rename a
// crash prevented (a later cut at that sequence number overwrites it only
// when it is of the same kind) and the deltas a published compaction had not
// yet removed. It touches nothing but names segmentName makes — the
// manifest, the audit log and the mirror subdirectory stay — and runs
// before the replica's writer starts, the only other writer of segments
// there.
func sweepOrphanSegments(dir string, man manifest) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	named := make(map[string]bool, len(man.segs))
	for _, ref := range man.segs {
		named[segmentName(ref)] = true
	}
	for _, e := range entries {
		if name := e.Name(); e.Type().IsRegular() && isSegmentName(name) && !named[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

func deliveryStatePath(dir string) string { return filepath.Join(dir, "delivery.state") }

// openSegFile opens the file every checkpoint segment and base mirror is
// written through. It is a variable so fault-injection tests (errfs-lite,
// codecutil.FailNth) can fail an individual Write or Sync call inside the
// pipeline; set it only while no cluster is running.
var openSegFile = func(path string) (codecutil.WriteSyncCloser, error) {
	return os.Create(path)
}

// writeFileSync writes data to a file directly and fsyncs it. Segment files
// use this rather than the atomic dance: their names are fresh and only the
// manifest makes them reachable.
func writeFileSync(path string, data []byte) error {
	f, err := openSegFile(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// write durably replaces the manifest file.
func (m *manifest) write(path string, runID uint64) error {
	return codecutil.ReplaceFile(path, m.appendTo(nil, runID), true)
}

// appendTo appends the manifest file format, stamped with runID, to b.
func (m *manifest) appendTo(b []byte, runID uint64) []byte {
	b = codecutil.AppendHeader(b, manifestMagic, manifestVersion)
	b = binary.AppendUvarint(b, runID)
	b = binary.AppendUvarint(b, m.nextSeq)
	b = binary.AppendUvarint(b, uint64(len(m.segs)))
	for _, s := range m.segs {
		b = binary.AppendUvarint(b, uint64(s.kind))
		b = binary.AppendUvarint(b, s.seq)
		b = binary.AppendUvarint(b, s.offset)
	}
	return b
}

// loadManifest reads a manifest, returning an empty one when the file is
// absent or stamped by another log (recover from scratch in both cases).
// Malformed content returns an error.
func loadManifest(path string, runID uint64) (manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return manifest{}, nil
		}
		return manifest{}, err
	}
	return parseManifest(data, runID)
}

// parseManifest is loadManifest's parse of the file's bytes.
func parseManifest(data []byte, runID uint64) (manifest, error) {
	c := codecutil.NewCursor(data, "manifest")
	c.Header(manifestMagic, manifestVersion)
	fileRun := c.U("run id")
	m := manifest{nextSeq: c.U("next seq")}
	count := c.Count("segment count", 3)
	for i := 0; i < count && c.Err == nil; i++ {
		kind := c.U("segment kind")
		seq := c.U("segment seq")
		off := c.U("segment offset")
		m.segs = append(m.segs, segmentRef{kind: uint8(kind), seq: seq, offset: off})
	}
	if c.Err != nil {
		return manifest{}, c.Err
	}
	if fileRun != runID {
		// Another log's chain: its offsets index a stream this log never
		// carried.
		return manifest{}, nil
	}
	return m, nil
}

// ckptJob is one cut handed from the apply loop to the async writer: the
// captured delta and the firehose offset it corresponds to. With auditing
// on, fp carries the CRC32C fingerprint of the replica's full state at
// the cut (hasFP false when auditing is off).
type ckptJob struct {
	delta  *partition.Segment
	offset uint64
	fp     uint32
	hasFP  bool
}

// ckptWriter is a replica's asynchronous persistence stage: it owns the
// replica's checkpoint directory, encodes and fsyncs delta segments off
// the apply loop, maintains the manifest, and folds long chains back into
// a fresh base (compaction). Exactly one writer runs per live replica;
// the consume loop is the only sender and lifecycle transitions
// (kill/restore/stop) close jobs only after the consumer has exited.
type ckptWriter struct {
	h      *replicaHost
	rep    *replica
	dir    string
	jobs   chan ckptJob
	done   chan struct{}
	man    manifest
	deltas int // delta segments since the last base
	// buf is the one buffer every segment this writer persists, delta or
	// base, is encoded into and written from whole; it goes with the writer.
	buf []byte
	// pending holds a cut whose persistence failed. CaptureDelta drains
	// the partition's dirty sets, so the failed cut's keys exist nowhere
	// else — they are merged into the next cut rather than dropped, or
	// the chain would silently compose a hole. A writer stopped with
	// pending set is still consistent: the chain simply ends at the last
	// durable segment's offset and replay rebuilds the lost window.
	pending *partition.Segment
	// alog is the replica's append-only fingerprint audit log (nil when
	// auditing is off or the log failed to open — the audit is advisory).
	// lastFP is the newest recorded live-cut fingerprint; compact
	// self-checks every composed base against it.
	alog         *audit.Log
	lastFP       uint32
	lastFPOffset uint64
	hasLastFP    bool
}

// auditLogPath names a replica directory's fingerprint audit log.
func auditLogPath(dir string) string { return filepath.Join(dir, "audit.log") }

// startWriter launches the async persistence goroutine for rep,
// continuing the given manifest chain, once the segments that chain does
// not name are swept from the replica's directory.
func (h *replicaHost) startWriter(rep *replica, man manifest) *ckptWriter {
	w := &ckptWriter{
		h:   h,
		rep: rep,
		// The replica's current generation directory — NOT the generation-0
		// name: a reprovisioned replica's chain lives in its new dir.
		dir:  rep.dir,
		jobs: make(chan ckptJob, ckptQueueDepth),
		done: make(chan struct{}),
		man:  man,
	}
	w.deltas = man.deltaCount()
	sweepOrphanSegments(w.dir, man)
	if h.audit {
		alog, err := audit.Open(auditLogPath(w.dir), h.runID)
		if err != nil {
			// Advisory subsystem: a replica that cannot audit still
			// checkpoints; the gap is visible as a missing source in
			// VerifyFingerprints.
			h.ckptErrors.Inc()
		} else {
			w.alog = alog
		}
	}
	go w.run()
	return w
}

func (w *ckptWriter) run() {
	defer close(w.done)
	defer func() {
		if w.alog != nil {
			w.alog.Close()
		}
	}()
	closed := false
	for !closed {
		job, ok := <-w.jobs
		if !ok {
			return
		}
		// Coalesce: fold everything already queued into this cut before
		// touching the disk, so a backlogged writer pays one segment
		// fsync and one manifest publication per drain instead of per
		// cut. Sound because deltas compose newer-wins per key
		// (partition.Merge): the merged delta at the newest cut's offset is
		// byte-equivalent to the chain of individual segments.
	drain:
		for {
			select {
			case next, ok := <-w.jobs:
				if !ok {
					closed = true
					break drain
				}
				next.delta = partition.Merge(false, job.delta, next.delta)
				job = next
				// The elided segment would have cost two fsyncs: its own
				// file and the manifest replacing it.
				w.h.fsyncsSaved.Add(2)
			default:
				break drain
			}
		}
		w.appendSegment(job)
	}
}

// stopWriter drains and stops a replica's writer. The caller holds ctl
// and has already observed the consumer goroutine stopped, so no further
// jobs can arrive.
func stopWriter(rep *replica) {
	if rep.writer == nil {
		return
	}
	close(rep.writer.jobs)
	<-rep.writer.done
	rep.writer = nil
}

// cutCheckpoint is the synchronous half of an incremental checkpoint: it
// captures the state dirtied since the last cut — cost proportional to
// recent write activity, not store size — and hands it to the replica's
// async writer for encoding, fsync, and manifest publication. The send
// blocks when the writer's small queue is full, back-pressuring the apply
// loop instead of letting pending checkpoint memory grow without bound.
func (h *replicaHost) cutCheckpoint(rep *replica, nextOffset uint64) {
	w := rep.writer
	if w == nil {
		return
	}
	// The clock starts before the ack gate, whose wait for the delivery
	// loop stalls the apply loop like any other part of the cut.
	start := time.Now()
	if !h.link.acked() {
		// The hub's delivery loop has not decided every candidate message
		// offered below this offset in time: a cut now could durably cover
		// offsets no delivery decision covers yet. Skip the cut entirely —
		// the dirty keys stay captured by the next one. (Checked before
		// CaptureDelta: a post-capture skip would drop the delta.)
		h.ckptErrors.Inc()
		h.cutPause.Observe(time.Since(start))
		return
	}
	delta := rep.p.CaptureDelta()
	job := ckptJob{delta: delta, offset: nextOffset}
	h.stampFingerprint(rep, &job)
	w.jobs <- job
	// Observed after the send so the metric is the apply loop's whole
	// checkpoint stall: the gate's wait, capture and any backpressure wait
	// on a slow writer — the honest number an operator watches to confirm
	// checkpointing is not pausing ingest.
	h.cutPause.Observe(time.Since(start))
}

// stampFingerprint attaches the replica's current state fingerprint to a
// checkpoint job when auditing is on. Called on the apply loop (or at
// drained shutdown) — the only places Apply is quiescent, which the
// fingerprint's encode of the live state requires. The base is encoded into
// the replica's fpBuf, which therefore holds one encoded base of the replica
// for as long as the replica lives; with auditing off it stays nil.
func (h *replicaHost) stampFingerprint(rep *replica, job *ckptJob) {
	if !h.audit {
		return
	}
	rep.fpBuf = rep.p.AppendBase(rep.fpBuf[:0])
	job.fp, job.hasFP = partition.FingerprintOf(rep.fpBuf), true
}

// appendSegment encodes one cut as a delta segment, fsyncs it, and
// publishes it through the manifest. On failure the cut is parked in
// pending and carried into the next segment (its keys were already
// drained from the dirty sets), so the durable chain stays hole-free — a
// replica with a stale chain just replays more.
func (w *ckptWriter) appendSegment(job ckptJob) {
	if w.pending != nil {
		job.delta = partition.Merge(false, w.pending, job.delta)
		w.pending = nil
	}
	ref := segmentRef{kind: segKindDelta, seq: w.man.nextSeq, offset: job.offset}
	path := segmentPath(w.dir, ref)
	w.buf = job.delta.AppendDelta(w.buf[:0])
	if err := writeFileSync(path, w.buf); err != nil {
		w.pending = job.delta
		w.h.ckptErrors.Inc()
		return
	}
	w.man.segs = append(w.man.segs, ref)
	w.man.nextSeq++
	if err := w.man.write(manifestPath(w.dir), w.h.runID); err != nil {
		// The manifest on disk still describes the old chain; keep the
		// in-memory view consistent with it.
		w.man.segs = w.man.segs[:len(w.man.segs)-1]
		w.man.nextSeq--
		os.Remove(path)
		w.pending = job.delta
		w.h.ckptErrors.Inc()
		return
	}
	w.h.checkpoints.Inc()
	if job.hasFP {
		w.recordFingerprint(audit.Record{Offset: job.offset, Sum: job.fp})
		w.lastFP, w.lastFPOffset, w.hasLastFP = job.fp, job.offset, true
	}
	w.deltas++
	if w.deltas >= w.h.compactEvery {
		w.compact()
	}
	// Durable progress: tell the hub where the replica's floor stands, so
	// it can move the log's truncation horizon.
	w.rep.att.ReportFloor(w.rep.floor(w.man.floorOffset()))
}

// recordFingerprint appends one record to the replica's audit log.
func (w *ckptWriter) recordFingerprint(rec audit.Record) {
	if w.alog == nil {
		return
	}
	if err := w.alog.Append(rec); err != nil {
		w.h.ckptErrors.Inc()
		return
	}
	w.h.auditRecords.Inc()
}

// compact folds the whole chain into a single fresh base whose offset is
// the newest segment's, then drops the old files. Compaction is what
// advances the replica's restore floor — reported to the hub by
// appendSegment, and with it the cluster-wide firehose truncation horizon —
// and what bounds restore composition time.
func (w *ckptWriter) compact() {
	if len(w.man.segs) < 2 {
		return
	}
	st, used, offset := composeChain(w.dir, w.man.segs)
	if used < len(w.man.segs) {
		// A corrupt segment mid-chain: leave it for restore-time fallback
		// rather than compacting a prefix and silently losing the rest.
		w.h.ckptErrors.Inc()
		return
	}
	w.buf = st.AppendBase(w.buf[:0])
	if w.h.audit {
		// Compaction self-check: the composed chain re-derives a state the
		// replica also held live (the newest cut), so their fingerprints
		// must match bit-for-bit. A mismatch here is the divergence class
		// the audit exists for — a recovery composition that would install
		// different state than the replica actually had — caught at write
		// time instead of at the next restore. The composed fingerprint, the
		// trailer of the base just encoded, is recorded either way (it
		// re-records the offset, so VerifyFingerprints exposes the
		// disagreement too); the base is still published — its bytes are
		// what the chain durably says, and refusing to compact would only
		// hide the divergence behind a longer chain.
		fp := partition.FingerprintOf(w.buf)
		if w.hasLastFP && w.lastFPOffset == offset && w.lastFP != fp {
			w.h.auditMismatches.Inc()
		}
		w.recordFingerprint(audit.Record{Offset: offset, Sum: fp})
	}
	ref := segmentRef{kind: segKindBase, seq: w.man.nextSeq, offset: offset}
	path := segmentPath(w.dir, ref)
	if err := writeFileSync(path, w.buf); err != nil {
		w.h.ckptErrors.Inc()
		return
	}
	old := w.man.segs
	w.man.segs = []segmentRef{ref}
	w.man.nextSeq++
	if err := w.man.write(manifestPath(w.dir), w.h.runID); err != nil {
		w.man.segs = old
		w.man.nextSeq--
		os.Remove(path)
		w.h.ckptErrors.Inc()
		return
	}
	for _, s := range old {
		os.Remove(segmentPath(w.dir, s))
	}
	w.deltas = 0
	w.h.compactions.Inc()
	// Base replication: push the fresh base to peer replica directories
	// so the partition keeps restore points even when this machine — or
	// this base — is lost.
	w.h.mirrorBase(w.rep, w.buf, offset)
}

// composeChain decodes segments in order, stopping at the first unreadable
// or corrupt one — the segment-at-a-time fallback — and merges those into
// one base segment. Returns the composed state, how many segments were
// used, and the offset of the last used segment (zero when none were).
func composeChain(dir string, segs []segmentRef) (st *partition.Segment, used int, offset uint64) {
	var chain []*partition.Segment
	var names codecutil.Strings // the chain's program names, one copy each
	for _, ref := range segs {
		// Each segment is read whole and decoded, CRC first, before any is
		// merged: a corrupt one leaves the chain before it as it was. The
		// decoded chain, not the files, bounds the fold's footprint.
		data, err := os.ReadFile(segmentPath(dir, ref))
		if err != nil {
			break
		}
		decode := partition.ParseDelta
		if ref.kind == segKindBase {
			decode = partition.DecodeBase
		}
		seg, err := decode(data, &names)
		if err != nil {
			break
		}
		if ref.kind == segKindBase {
			chain = chain[:0] // a base supersedes everything older
		}
		chain = append(chain, seg)
		used, offset = used+1, ref.offset
	}
	return partition.Merge(true, chain...), used, offset
}

// clampChainPrefix returns how many leading segments have cut offsets at
// or below limit — planRestore passes the log head, so the kept prefix is
// what the log still extends: a chain cut above the head (a log that lost
// its tail) falls back to it.
func clampChainPrefix(segs []segmentRef, limit uint64) int {
	keep := 0
	for i, ref := range segs {
		if ref.offset > limit {
			break
		}
		keep = i + 1
	}
	return keep
}

// truncateManifest drops segments beyond keep, rewrites the manifest, and
// removes the dropped files, reporting whether the trim stuck. Used by
// restore to drop a corrupt tail or segments past the log head. A
// failed rewrite is counted and the trim abandoned — in-memory chain and
// files stay exactly as the on-disk manifest describes them, so nothing
// leaks unreferenced and a later restore retries the same fallback.
func (h *replicaHost) truncateManifest(dir string, man *manifest, keep int) bool {
	if keep >= len(man.segs) {
		return true
	}
	dropped := man.segs[keep:]
	trimmed := man.segs[:keep:keep]
	old := man.segs
	man.segs = trimmed
	if err := man.write(manifestPath(dir), h.runID); err != nil {
		man.segs = old
		h.ckptErrors.Inc()
		return false
	}
	for _, s := range dropped {
		os.Remove(segmentPath(dir, s))
	}
	return true
}

// persistDeliveryState cuts the delivery tier's restart state to
// delivery.state as ONE atomic file: a gating header carrying the
// per-group high-water offsets passed by the caller (CRC32C-trailed),
// then the pipeline's own CRC32C-framed suppression snapshot (dedup LRU
// + fatigue budgets). The pairing invariant — a restored filter seeded
// from this file never runs ahead of the dedup state restored from it —
// rests on a one-sided capture order the callers must preserve: `next`
// is snapshotted AT OR BEFORE the moment AppendState captures the pipeline
// state (the async cut copies the offsets at the cadence point, then
// captures strictly later on this goroutine; the final drain cut takes
// both at the same quiesced instant). Offsets older than the state only
// re-process replayed batches the restored dedup entries suppress;
// offsets newer than the state would skip spans the LRU has never seen
// — the loss direction this file exists to rule out. Always durable
// (tmp+rename+fsync): it runs off the delivery goroutine (the periodic
// async cut) or at drain (the final exact cut), so the fsync stalls
// nobody. The file is encoded into a buffer of the cut's own, dropped
// with it.
func (h *hubTier) persistDeliveryState(next []uint64) error {
	data := appendDeliveryState(nil, h.runID, next, h.pipeline)
	if err := codecutil.ReplaceFile(deliveryStatePath(h.cfg.CheckpointDir), data, true); err != nil {
		h.ckptErrors.Inc()
		return err
	}
	h.deliveryStateCuts.Inc()
	return nil
}

// appendDeliveryState appends delivery.state to b: the gating header
// (magic, version, gating id, the per-group offsets) closed by its CRC32C,
// then p's snapshot.
func appendDeliveryState(b []byte, runID uint64, next []uint64, p *delivery.Pipeline) []byte {
	start := len(b)
	b = codecutil.AppendHeader(b, deliveryStateMagic, deliveryStateVersion)
	b = binary.AppendUvarint(b, runID)
	b = binary.AppendUvarint(b, uint64(len(next)))
	for _, off := range next {
		b = binary.AppendUvarint(b, off)
	}
	return p.AppendState(codecutil.AppendChecksum(b, start))
}

// cutDeliveryStateAsync schedules one delivery state cut off the
// delivery goroutine, with the filter offsets captured at the cadence
// point. At most one cut is in flight: if the previous one is still
// writing, this tick is skipped — the next cadence point captures a
// strictly newer state anyway (latest wins).
func (h *hubTier) cutDeliveryStateAsync(next []uint64) {
	if !h.stateBusy.CompareAndSwap(false, true) {
		return
	}
	h.stateWG.Add(1)
	go func() {
		defer h.stateWG.Done()
		defer h.stateBusy.Store(false)
		h.persistDeliveryState(next)
	}()
}

// loadDeliveryState restores the delivery pipeline's dedup LRU and
// fatigue budgets from delivery.state and returns the filter offsets
// captured with them. It returns nil — and installs nothing — when the
// file is missing, foreign-run, shaped for a different partition count,
// or corrupt: the caller then degrades to a filter seeded from zero and a
// fresh pipeline (a repeated (user, item) pair may be re-pushed once),
// never a failed reopen. Only corruption and shape mismatches are counted
// as errors.
func (h *hubTier) loadDeliveryState() []uint64 {
	data, err := os.ReadFile(deliveryStatePath(h.cfg.CheckpointDir))
	if err != nil {
		return nil
	}
	offsets, err := parseDeliveryState(data, h.runID, h.cfg.Partitions, h.pipeline)
	if err != nil {
		h.ckptErrors.Inc()
	}
	if offsets != nil {
		h.deliveryStateRestores.Inc()
	}
	return offsets
}

// parseDeliveryState parses delivery.state, restoring its snapshot into p
// and returning its offsets — nil, and no error, for a file another run
// wrote. A file that does not cover exactly partitions groups is rejected
// whole, before p is touched.
func parseDeliveryState(data []byte, runID uint64, partitions int, p *delivery.Pipeline) ([]uint64, error) {
	cur := codecutil.NewCursor(data, "delivery state header")
	cur.Header(deliveryStateMagic, deliveryStateVersion)
	if run := cur.U("run id"); cur.Err == nil && run != runID {
		// A foreign run's pipeline state indexes a stream this log never
		// carried; ignoring it is the correct degrade, not an error.
		return nil, nil
	}
	offsets := make([]uint64, cur.Count("group count", 1))
	for i := range offsets {
		offsets[i] = cur.U("group offset")
	}
	// The header's trailer sits mid-file, so it is checked after the parse
	// that finds it; the pipeline section after it verifies CRC-first.
	cur.Trailer()
	if cur.Err == nil && len(offsets) != partitions {
		// A different deployment shape under the same log identity cannot
		// seed this filter, so the pair is rejected whole.
		cur.Fail("group count", fmt.Errorf("%d groups, want %d", len(offsets), partitions))
	}
	if cur.Err != nil {
		return nil, cur.Err
	}
	if err := p.Restore(cur); err != nil {
		return nil, err
	}
	return offsets, nil
}

// KillReplica crashes a replica for real: it stops consuming the firehose
// and its entire recoverable state is dropped, unlike FailReplica's
// health-flag failure. Reads route around it, and candidate delivery
// continues from the surviving replicas' redundant emissions. The last
// alive replica of a group cannot be killed — that would lose in-flight
// motifs for the whole partition, which the architecture (like the
// paper's) does not survive.
func (c *Cluster) KillReplica(pid, r int) error {
	slot, rep, err := c.localSlot(pid, r)
	if err != nil {
		return err
	}
	defer c.host.ctl.Unlock()
	if slot.state.Load() == replicaDead {
		return fmt.Errorf("cluster: replica %d/%d is already dead", pid, r)
	}
	if c.hub.alive(pid, slot) < 1 {
		return fmt.Errorf("cluster: cannot kill last alive replica of partition %d", pid)
	}
	c.host.teardown(rep)
	rep.p.Reset()
	return nil
}

// lifecycle is the replica lifecycle calls' shared preamble: recovery must
// be enabled, slots and replicas both in this process, and the cluster
// started (slots come to life through Start).
func (c *Cluster) lifecycle() error {
	switch {
	case c.cfg.CheckpointDir == "":
		return ErrRecoveryDisabled
	case c.networked():
		return ErrNotLocal
	case !c.host.started.Load():
		return fmt.Errorf("cluster: replica lifecycle calls require a started cluster")
	}
	return nil
}

// localSlot is lifecycle plus the lookup of a slot still in service and the
// replica that runs it. On success it returns with ctl held, which the
// caller releases.
func (c *Cluster) localSlot(pid, r int) (*replicaSlot, *replica, error) {
	if err := c.lifecycle(); err != nil {
		return nil, nil, err
	}
	slot, err := c.hub.slot(pid, r)
	if err != nil {
		return nil, nil, err
	}
	c.host.ctl.Lock()
	if slot.state.Load() == replicaRemoved {
		c.host.ctl.Unlock()
		return nil, nil, fmt.Errorf("cluster: replica %d/%d is decommissioned", pid, r)
	}
	return slot, c.host.replica(pid, r), nil
}

// RestoreReplica rejoins a killed replica: plan and execute its restore
// (planRestore: own chain, base pool, or scratch — every cut of which lies
// at or below what the delivery tier has decided, so the rejoin skips no
// undecided offset), then replay the retained firehose log from the
// restore point. S is the one the
// replica was built with, its peers' too. The replica stays broker-down
// while replaying, and the delivery tier's offset filter absorbs its
// replayed candidate batches; it turns live once it has applied every
// offset that existed when recovery began. Must not be called concurrently
// with Stop.
func (c *Cluster) RestoreReplica(pid, r int) error {
	slot, rep, err := c.localSlot(pid, r)
	if err != nil {
		return err
	}
	defer c.host.ctl.Unlock()
	if slot.state.Load() != replicaDead {
		return fmt.Errorf("cluster: replica %d/%d is not dead; only killed replicas restore", pid, r)
	}
	at, err := c.host.restoreSlot(rep)
	if err != nil {
		return err
	}
	return c.host.launchReplica(rep, at)
}

// ReplicaState reports a replica's position in the catch-up state machine:
// "live", "replaying", "dead", or "removed" (decommissioned).
func (c *Cluster) ReplicaState(pid, r int) (string, error) {
	slot, err := c.slot(pid, r)
	if err != nil {
		return "", err
	}
	switch slot.state.Load() {
	case replicaReplaying:
		return "replaying", nil
	case replicaDead:
		return "dead", nil
	case replicaRemoved:
		return "removed", nil
	default:
		return "live", nil
	}
}

// AwaitReplicaLive blocks until the replica reaches the live state, up to
// timeout — the test and benchmark hook for measuring catch-up. Waiting
// is event-driven (the slot's live channel closes on the replaying→live
// transition), not a poll. A kill/restore cycle racing the wait counts as
// not reaching live.
func (c *Cluster) AwaitReplicaLive(pid, r int, timeout time.Duration) error {
	slot, err := c.slot(pid, r)
	if err != nil {
		return err
	}
	c.hub.slotMu.Lock()
	live := slot.live
	c.hub.slotMu.Unlock()
	if slot.state.Load() == replicaLive {
		return nil
	}
	select {
	case <-live:
		return nil
	case <-time.After(timeout):
		state, _ := c.ReplicaState(pid, r)
		return fmt.Errorf("cluster: replica %d/%d still %s after %v", pid, r, state, timeout)
	}
}
