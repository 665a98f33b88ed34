package cluster

// Elastic placement — the mechanisms behind internal/placement's model of
// replicas as placements on virtual nodes: node replacement
// (ReprovisionReplica), base replication (mirrorBase), and live scale-out
// and scale-in (AddReplica / DecommissionReplica). The package doc states
// what each guarantees.
//
// The base pool is the partition-wide set of potential restore points:
// every non-removed replica directory's own compacted base plus the
// mirror files pushed into it. Replicas of a partition are deterministic
// clones, so *any* CRC-valid base of the partition restores *any*
// replica — what matters is only that the durable log still extends it
// (base offset within [log start, head]).

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"motifstream/internal/codecutil"
	"motifstream/internal/partition"
)

// Partitions returns the number of partitions (placement.Elastic).
func (c *Cluster) Partitions() int { return c.cfg.Partitions }

// Replicas returns partition pid's current replica count, decommissioned
// tombstones included — indices stay stable, so this is also the bound
// for ReplicaState scans (placement.Elastic). Zero on a worker, which
// keeps no slot table.
func (c *Cluster) Replicas(pid int) int {
	h, err := c.hubTier()
	if err != nil || pid < 0 || pid >= len(h.slots) {
		return 0
	}
	h.topoMu.RLock()
	defer h.topoMu.RUnlock()
	return len(h.slots[pid])
}

// mirrorSubdir is the subdirectory of a replica directory holding base
// mirrors pushed by peers.
const mirrorSubdir = "mirror"

// mirrorName formats a mirror file name: the identity of the log the base's
// offset indexes (like a manifest's gating id: a mirror is only a restore
// point against that log), the source replica index (so a source's newer
// push retires only its own older ones) and the base's cut offset,
// zero-padded so lexical order is offset order.
func mirrorName(id uint64, srcIdx int, offset uint64) string {
	return fmt.Sprintf("mirror-%016x-r%02d-%020d.seg", id, srcIdx, offset)
}

// parseMirrorName inverts mirrorName for mirrors written under log identity
// id. ok is false for any other name — among them another log's mirrors and
// those named before mirrors carried an identity — which no restore installs
// and the retire paths delete.
func parseMirrorName(name string, id uint64) (srcIdx int, offset uint64, ok bool) {
	rest, found := strings.CutPrefix(name, fmt.Sprintf("mirror-%016x-r", id))
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".seg")
	if !found {
		return 0, 0, false
	}
	idxStr, offStr, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return 0, 0, false
	}
	off, err := strconv.ParseUint(offStr, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return idx, off, true
}

// baseFingerprint returns a base file's state fingerprint: its CRC32C
// trailer — the checksum of the payload before it, which is by definition
// the fingerprint of the state the file encodes (partition/fingerprint.go).
// ok is false when the trailer does not verify against the payload.
func baseFingerprint(data []byte) (fp uint32, ok bool) {
	c := codecutil.NewCursor(data, "base")
	fp = c.Checked()
	return fp, c.Err == nil
}

// checksumOK verifies a base file's CRC32C trailer over its payload — the
// cheap byte-level gate mirror writes use; compose-time reads do the full
// structural decode.
func checksumOK(data []byte) bool {
	_, ok := baseFingerprint(data)
	return ok
}

// mirrorBase replicates a freshly compacted base to up to
// Config.MirrorBases peer replica directories of the same partition.
// Called from the owning replica's writer goroutine after the base is
// published. Strictly best-effort: the source is CRC-verified before any
// push, each push is independent, and a failed one is counted and left
// where it tore (a crashed pusher would too — readers CRC-gate every
// mirror, so torn files are inert).
func (h *replicaHost) mirrorBase(rep *replica, srcPath string, offset uint64) {
	budget := h.mirrorBases
	if budget <= 0 {
		return
	}
	data, err := os.ReadFile(srcPath)
	if err != nil || !checksumOK(data) {
		h.ckptErrors.Inc()
		return
	}
	// The writes happen outside the topology lock. A peer decommissioned or
	// reprovisioned between the snapshot and the push at worst leaves
	// garbage in a directory about to be (or already) deleted — generation
	// directories are never reused, so nothing can ever resurrect it.
	for _, peer := range h.placed(rep.pid) {
		if budget == 0 {
			break
		}
		if peer.idx == rep.idx {
			continue
		}
		dir := filepath.Join(peer.dir, mirrorSubdir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			h.ckptErrors.Inc()
			continue
		}
		if err := writeMirrorFile(filepath.Join(dir, mirrorName(h.runID, rep.idx, offset)), data); err != nil {
			h.ckptErrors.Inc()
			continue
		}
		removeOlderMirrors(dir, h.runID, rep.idx, offset)
		h.mirrorsOut.Inc()
		budget--
	}
}

// writeMirrorFile writes one mirror push. Unlike writeFileSync it does
// NOT remove the file on failure: a crashed pusher leaves a torn file on
// the peer's disk, and modeling that honestly is the point — readers
// CRC-gate every mirror before trusting it.
func writeMirrorFile(path string, data []byte) error {
	f, err := openSegFile(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// removeOlderMirrors retires srcIdx's mirrors older than newest — one
// live mirror per source bounds pool disk to MirrorBases extra bases per
// replica — and every file not written under log identity id.
func removeOlderMirrors(dir string, id uint64, srcIdx int, newest uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if idx, off, ok := parseMirrorName(e.Name(), id); !ok || idx == srcIdx && off < newest {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// mirrorOffsets lists, per source replica, the replay point of the
// newest CRC-intact mirror base hosted in a replica directory's mirror
// subdir — the truncation floor scan's view of the base pool. Only the
// newest intact mirror per source counts: that is the file composeFromPool
// would actually install (it picks the newest base that passes the gate),
// so its offset is the pool's real claim on the log. Torn mirrors are
// deliberately excluded — they are inert for restore, and counting them
// would let a crashing pusher (whose retirement pass never ran) pin the
// firehose log at a dead offset forever, as are mirrors not written under
// log identity id.
func mirrorOffsets(dir string, id uint64) []uint64 {
	mdir := filepath.Join(dir, mirrorSubdir)
	entries, err := os.ReadDir(mdir)
	if err != nil {
		return nil
	}
	// Per source, walk candidate offsets newest-first and take the first
	// file whose checksum holds. ReadDir returns names sorted, and
	// mirrorName zero-pads offsets, so per source the order is ascending.
	bySrc := make(map[int][]string)
	for _, e := range entries {
		if idx, _, ok := parseMirrorName(e.Name(), id); ok {
			bySrc[idx] = append(bySrc[idx], e.Name())
		}
	}
	var out []uint64
	for _, names := range bySrc {
		for i := len(names) - 1; i >= 0; i-- {
			data, err := os.ReadFile(filepath.Join(mdir, names[i]))
			if err != nil || !checksumOK(data) {
				continue
			}
			_, off, _ := parseMirrorName(names[i], id)
			out = append(out, off)
			break
		}
	}
	return out
}

// removeSourceMirrors retires every mirror srcIdx pushed into partition
// pid's replica directories, and every file there not written under this
// cluster's log identity. Called when the source placement is
// decommissioned: its mirrors would otherwise never be retired (only the
// source's own newer pushes retire them), and with the truncation floor
// counting mirror offsets an orphaned mirror would pin the firehose log
// forever.
func (h *replicaHost) removeSourceMirrors(pid, srcIdx int) {
	for _, peer := range h.placed(pid) {
		mdir := filepath.Join(peer.dir, mirrorSubdir)
		entries, err := os.ReadDir(mdir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if idx, _, ok := parseMirrorName(e.Name(), h.runID); !ok || idx == srcIdx {
				os.Remove(filepath.Join(mdir, e.Name()))
			}
		}
	}
}

// baseSource is one candidate restore point in a partition's base pool.
type baseSource struct {
	path   string
	offset uint64
}

// basePool lists every potential restore base among a partition's
// placements — each directory's own manifest base plus the mirrors pushed
// into it under log identity runID — newest offset first. Purely advisory:
// candidates are fully CRC-verified at compose time, so concurrent
// compaction retiring a file, a torn mirror push, or plain corruption just
// moves composition to the next candidate.
func basePool(placements []placed, runID uint64) []baseSource {
	var out []baseSource
	for _, pl := range placements {
		dir := pl.dir
		if man, err := loadManifest(manifestPath(dir), runID); err == nil &&
			len(man.segs) > 0 && man.segs[0].kind == segKindBase {
			out = append(out, baseSource{path: segmentPath(dir, man.segs[0]), offset: man.segs[0].offset})
		}
		mdir := filepath.Join(dir, mirrorSubdir)
		entries, err := os.ReadDir(mdir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if _, off, ok := parseMirrorName(e.Name(), runID); ok {
				out = append(out, baseSource{path: filepath.Join(mdir, e.Name()), offset: off})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].offset > out[j].offset })
	return out
}

// composeFromPool tries pool candidates newest-first and returns the
// first fully CRC-valid base whose offset the durable log extends
// (start ≤ offset ≤ head): the decoded state, the raw bytes (for
// re-seeding a chain), and the offset.
func composeFromPool(pool []baseSource, start, head uint64) (*partition.Segment, []byte, uint64, bool) {
	for _, src := range pool {
		if src.offset < start || src.offset > head {
			continue
		}
		data, err := os.ReadFile(src.path)
		if err != nil {
			continue
		}
		st, err := partition.DecodeBase(data)
		if err != nil {
			continue
		}
		return st, data, src.offset, true
	}
	return nil, nil, 0, false
}

// seedChain installs a recovered base as a replica directory's entire
// durable chain: segment file first, then the manifest naming it — the
// writer's crash-safe order — continuing old's sequence numbers so file
// names never collide, and retiring old's now-unreferenced segments.
func (h *replicaHost) seedChain(dir string, data []byte, offset uint64, old manifest) (manifest, error) {
	ref := segmentRef{kind: segKindBase, seq: old.nextSeq, offset: offset}
	if err := writeFileSync(segmentPath(dir, ref), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return manifest{}, err
	}
	man := manifest{segs: []segmentRef{ref}, nextSeq: old.nextSeq + 1}
	if err := man.write(manifestPath(dir), h.runID); err != nil {
		os.Remove(segmentPath(dir, ref))
		return manifest{}, err
	}
	for _, s := range old.segs {
		os.Remove(segmentPath(dir, s))
	}
	return man, nil
}

// launchPlacement brings a freshly provisioned placement — empty state and
// directory, S built from the newest offline build — to live. Its plan
// finds no chain, so it seeds from the pool's newest usable base (or
// rebuilds from a log retained from zero). The caller holds ctl.
func (h *replicaHost) launchPlacement(rep *replica, alive bool) error {
	plan, err := h.planSlot(rep, alive)
	if err != nil {
		return err
	}
	// Go-live fingerprint gate: the pool would seed this placement with
	// state no replica ever held — refuse rather than let a diverged
	// newcomer advance the group's delivery high-water. The slot stays dead
	// with its floor pinning the log; the operator can retry once the pool
	// heals.
	if plan.seed != nil && plan.diverged() {
		h.auditMismatches.Inc()
		return fmt.Errorf("cluster: replica %d/%d: pool base at offset %d has fingerprint %08x, source recorded %08x; refusing go-live",
			rep.pid, rep.idx, plan.offset, plan.got, plan.want)
	}
	at, err := h.executeRestore(rep, plan)
	if err != nil {
		return err
	}
	return h.launchReplica(rep, at)
}

// ReprovisionReplica replaces a replica's node: the old placement — its
// in-memory state and its directory, chains, mirrors and all — is
// discarded, and a fresh replica is built on a new generation directory
// serving the host's one S of the partition, its peers' too, its state
// recovered from the partition's base pool plus durable-log replay through
// the standard replaying → live machine. A dead replica (the auto-healer's
// case) is replaced in place; a live one is first torn down like
// KillReplica, guarding the group's last alive copy. Must not be called
// concurrently with Stop.
func (c *Cluster) ReprovisionReplica(pid, r int) error {
	slot, rep, err := c.localSlot(pid, r)
	if err != nil {
		return err
	}
	defer c.host.ctl.Unlock()
	if slot.state.Load() != replicaDead {
		// Planned replacement of a running node: KillReplica's teardown,
		// with the same last-alive guard. (A dead node is already gone and
		// is replaced in place.)
		if c.hub.alive(pid, slot) < 1 {
			return fmt.Errorf("cluster: cannot reprovision last alive replica of partition %d", pid)
		}
		c.host.teardown(rep)
	}
	// The replacement machine: fresh partition, new generation directory.
	// The generation bump persists before anything touches disk, so even
	// a crash mid-provision leaves a restart opening the right (empty)
	// directory rather than the dead node's.
	pl, err := c.table.Bump(pid, r)
	if err != nil {
		c.ckptErrors.Inc()
		return fmt.Errorf("cluster: reprovision %d/%d: placement table: %w", pid, r, err)
	}
	fresh, err := c.host.place(pid, r, pl.Gen, true)
	if err != nil {
		return fmt.Errorf("cluster: reprovision %d/%d: %w", pid, r, err)
	}
	c.hub.topoMu.Lock()
	slot.gen, slot.dir = fresh.gen, fresh.dir
	c.hub.topoMu.Unlock()
	c.host.mu.Lock()
	c.host.reps[slices.Index(c.host.reps, rep)] = fresh
	c.host.mu.Unlock()
	// The old machine's disk dies with the machine — including the
	// mirrors peers pushed onto it.
	if rep.dir != "" {
		os.RemoveAll(rep.dir)
	}
	c.reprovisions.Inc()
	return c.host.launchPlacement(fresh, c.hub.alive(pid, nil) > 0)
}

// AddReplica grows partition pid by one replica while the stream is
// flowing — live scale-out. The new replica is a fresh placement
// (generation 0 of a brand-new index, persisted in the placement table so
// restarts rebuild it) that catches up from the partition's base pool
// plus log replay and turns live exactly like a restored replica; the
// delivery tier's per-group offset filter makes its re-emitted candidate
// batches exactly-once by construction. Returns the new replica's index.
// Requires a started cluster; must not be called concurrently with Stop.
func (c *Cluster) AddReplica(pid int) (int, error) {
	if err := c.lifecycle(); err != nil {
		return 0, err
	}
	if pid < 0 || pid >= c.cfg.Partitions {
		return 0, fmt.Errorf("cluster: partition %d out of range", pid)
	}
	c.host.ctl.Lock()
	defer c.host.ctl.Unlock()
	idx := len(c.hub.slots[pid]) // stable: all topology mutations hold ctl
	// Fallible provisioning first, the table persist last: a failure here
	// leaves nothing recorded (an orphan directory at worst, wiped by the
	// next attempt), so a transient error never wedges the index; a crash
	// between the persist and the in-memory append restarts into a
	// replica with an empty directory — a scratch catch-up, the intended
	// end state.
	rep, err := c.host.place(pid, idx, 0, true)
	if err != nil {
		return 0, fmt.Errorf("cluster: add replica %d/%d: %w", pid, idx, err)
	}
	if _, err := c.table.Add(pid, idx); err != nil {
		os.RemoveAll(rep.dir)
		return 0, fmt.Errorf("cluster: add replica %d/%d: placement table: %w", pid, idx, err)
	}
	slot := &replicaSlot{pid: pid, idx: idx, dir: rep.dir, live: make(chan struct{})}
	slot.state.Store(replicaDead) // until the launch below attaches
	// Membership first, with a floor of zero: from this instant the
	// truncation scan counts the newcomer, so the log cannot be compacted
	// out from under the catch-up launchPlacement is about to begin.
	c.hub.topoMu.Lock()
	c.hub.slots[pid] = append(c.hub.slots[pid], slot)
	c.hub.topoMu.Unlock()
	c.host.mu.Lock()
	c.host.reps = append(c.host.reps, rep)
	c.host.mu.Unlock()
	if _, err := c.hub.broker.AddReplica(pid, vacant{pid: pid}); err != nil {
		return 0, err
	}
	c.scaleOuts.Inc()
	// On error the slot stays dead (and its floor pins the log); the
	// operator can retry via RestoreReplica or ReprovisionReplica.
	return idx, c.host.launchPlacement(rep, c.hub.alive(pid, nil) > 0)
}

// DecommissionReplica removes a replica from service permanently — live
// scale-in. Its consumer is torn down like KillReplica's, its directory
// (with the mirrors peers pushed there) is deleted, and the placement
// table records a tombstone so the index is never reused and restarts do
// not rebuild it. The group's last alive replica cannot be removed. Must
// not be called concurrently with Stop.
func (c *Cluster) DecommissionReplica(pid, r int) error {
	slot, rep, err := c.localSlot(pid, r)
	if err != nil {
		return err
	}
	defer c.host.ctl.Unlock()
	if c.hub.alive(pid, slot) < 1 {
		return fmt.Errorf("cluster: cannot decommission last alive replica of partition %d", pid)
	}
	// Persist the tombstone while the replica still runs: a crash after
	// the save but before the teardown reopens without the replica —
	// exactly the end state.
	if err := c.table.Remove(pid, r); err != nil {
		c.ckptErrors.Inc()
		return fmt.Errorf("cluster: decommission %d/%d: placement table: %w", pid, r, err)
	}
	if slot.state.Load() != replicaDead {
		c.host.teardown(rep)
	}
	slot.state.Store(replicaRemoved)
	rep.p.Reset() // release the replica's memory
	c.host.mu.Lock()
	c.host.reps = slices.DeleteFunc(c.host.reps, func(o *replica) bool { return o == rep })
	c.host.mu.Unlock()
	if slot.dir != "" {
		os.RemoveAll(slot.dir)
	}
	// Retire the mirrors this replica pushed to its peers: no source will
	// ever supersede them, and the truncation floor counts hosted mirrors.
	c.host.removeSourceMirrors(pid, r)
	c.scaleIns.Inc()
	return nil
}
