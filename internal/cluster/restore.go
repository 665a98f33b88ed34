package cluster

import (
	"fmt"

	"motifstream/internal/partition"
	"motifstream/internal/queue"
)

// Every way a replica comes (back) to life — a whole-cluster restart, a
// RestoreReplica rejoin, a re-provisioned or scaled-out placement — is one
// decision over the same observations: which durable restore point to
// install, and where in the firehose log to replay from. planRestore makes
// it and only reads; executeRestore performs the plan's writes and installs
// its state; launchReplica attaches at the plan's offset and floor
// (docs/DURABILITY.md, "Restore planning").

// restoreInputs is everything a restore decision may observe.
type restoreInputs struct {
	// dir is the replica's checkpoint directory; runID gates its manifest.
	dir   string
	runID uint64
	// Offsets in [logStart, head] are the replayable restore points.
	logStart, head uint64
	// pool is the partition's base pool (basePool), newest offset first.
	pool []baseSource
	// recorded maps cut offsets to the state fingerprint a replica of the
	// partition recorded there; nil when auditing is off.
	recorded map[uint64]uint32
}

// restorePlan is planRestore's decision; nothing in it is applied yet.
type restorePlan struct {
	// man is the chain as the manifest on disk describes it, keep the
	// leading segments of it that compose the restore point. mustTrim: a
	// dropped segment is intact or claims offsets past the log head — left
	// in the manifest it would compose again, so the plan must not run on
	// an untrimmed chain. (A corrupt tail is inert: a failed trim of it is
	// tolerated and retried by the next restore.)
	man      manifest
	keep     int
	mustTrim bool
	// state is the composed state to install (nil: scratch). seed, when
	// non-nil, is the raw pool base state decodes; it replaces the chain.
	state *partition.Segment
	seed  []byte
	// offset is the replay point — every envelope below it is folded into
	// state — and floor the offset of the base actually installed (zero
	// without one), which bounds the replica's floor.
	offset, floor uint64
	// audited: a replica recorded fingerprint want at offset, and state
	// fingerprints to got. Unset with auditing off, from scratch, or at an
	// offset nothing recorded.
	audited   bool
	got, want uint32
	// faults counts the anomalies planning routed around (an unreadable
	// manifest, segments past the log head, a corrupt tail).
	faults uint64
}

// diverged reports a state no replica recorded holding at its offset.
func (p *restorePlan) diverged() bool { return p.audited && p.got != p.want }

// planRestore decides how the replica in in.dir restores, writing nothing.
// Restore points are tried in order:
//
//  1. the replica's own chain — the longest manifest prefix the log can
//     back (a cut past the head means a torn tail lost the suffix the chain
//     claims) that composes with every segment's checksum verified (a
//     corrupt base is treated like a corrupt delta: the chain falls all the
//     way back to scratch) — never past an offset the delivery tier has not
//     decided, since every cut waited for that (acked);
//  2. the partition's base pool, when the chain's point lies below the
//     log's truncation horizon or the directory holds no chain at all (a
//     fresh placement: any base the log extends beats replaying from zero);
//  3. scratch — offset zero — which only a log retained from zero extends.
//
// When none applies the restore point is unrecoverable history: the error
// wraps queue.ErrTruncated instead of composing garbage.
func planRestore(in restoreInputs) (restorePlan, error) {
	var plan restorePlan
	man, err := loadManifest(manifestPath(in.dir), in.runID)
	if err != nil {
		// Unreadable manifest: recover from scratch; replaying the full
		// log rebuilds identical state, just more slowly.
		plan.faults++
		man = manifest{}
	}
	plan.man = man
	segs := man.segs
	keep := clampChainPrefix(segs, in.head)
	if keep < len(segs) {
		plan.faults++
		plan.mustTrim = true
	}
	st, used, offset := composeChain(in.dir, segs[:keep])
	if used < keep {
		plan.faults++
	}
	plan.keep = used
	if used > 0 {
		plan.state, plan.offset = st, offset
		plan.floor = (&manifest{segs: segs[:used]}).floorOffset()
	}
	if plan.offset < in.logStart || len(segs) == 0 {
		if st, data, off, ok := composeFromPool(in.pool, in.logStart, in.head); ok {
			plan.state, plan.seed, plan.offset, plan.floor = st, data, off, off
		} else if plan.offset < in.logStart {
			return plan, fmt.Errorf("restore point %d below log start %d and no usable base in the partition pool: %w",
				plan.offset, in.logStart, queue.ErrTruncated)
		}
	}
	// Audit cross-check: the state about to be installed must fingerprint-
	// equal what a replica recorded when it held that state live. A pool
	// base's fingerprint is its verified checksum trailer; a composed
	// chain's is computed.
	if want, found := in.recorded[plan.offset]; found && plan.state != nil && plan.offset > 0 {
		got, ok := baseFingerprint(plan.seed)
		if !ok {
			got = plan.state.Fingerprint()
		}
		plan.audited, plan.got, plan.want = true, got, want
	}
	return plan, nil
}

// restorePoint is where an executed plan left a slot — launchReplica's
// arguments: the chain its writer continues, the offset its consumer
// replays from, the floor it advertises.
type restorePoint struct {
	man           manifest
	offset, floor uint64
}

// planSlot gathers rep's restore inputs and plans its restore. The caller
// holds ctl (or is construction).
func (h *replicaHost) planSlot(rep *replica) (restorePlan, error) {
	_, head, start := h.link.LogMeta()
	in := restoreInputs{
		dir:      rep.dir,
		runID:    h.runID,
		logStart: start,
		head:     head,
		pool:     basePool(h.placed(rep.pid), h.runID),
	}
	if h.audit {
		in.recorded = h.recordedFingerprints(auditSources(h.placed(rep.pid)))
	}
	plan, err := planRestore(in)
	if err != nil {
		return plan, fmt.Errorf("cluster: replica %d/%d: %w", rep.pid, rep.idx, err)
	}
	return plan, nil
}

// executeRestore performs a plan: its durable writes first (seed the chain
// from the pool base, or trim the manifest to the kept prefix), then the
// state install. A diverged plan is counted and still executed — the
// delivery tier's offset filter keeps the group exactly-once regardless,
// and a bricked restore helps nobody; launchPlacement is stricter.
func (h *replicaHost) executeRestore(rep *replica, plan restorePlan) (restorePoint, error) {
	h.ckptErrors.Add(plan.faults)
	man := plan.man
	if plan.seed != nil {
		seeded, err := h.seedChain(rep.dir, plan.seed, plan.offset, man)
		if err != nil {
			// Without a durable seed base the chain would silently compose
			// a hole (deltas cut after the install describe only
			// post-install changes); refuse rather than diverge.
			h.ckptErrors.Inc()
			return restorePoint{}, fmt.Errorf("cluster: replica %d/%d: seeding chain from base pool: %w", rep.pid, rep.idx, err)
		}
		man = seeded
		h.poolRestores.Inc()
	} else if !h.truncateManifest(rep.dir, &man, plan.keep) && plan.mustTrim {
		return restorePoint{}, fmt.Errorf("cluster: replica %d/%d: cannot trim chain to its restore point %d", rep.pid, rep.idx, plan.offset)
	}
	if plan.diverged() {
		h.auditMismatches.Inc()
	}
	if plan.state == nil {
		rep.p.Reset()
	} else {
		rep.p.LoadState(plan.state)
	}
	h.scanMirrored(rep)
	return restorePoint{man: man, offset: plan.offset, floor: rep.floor(plan.floor)}, nil
}

// restoreSlot plans and executes the restore of a replica whose partition
// was built from configuration (construction) or survived a kill
// (RestoreReplica).
func (h *replicaHost) restoreSlot(rep *replica) (restorePoint, error) {
	plan, err := h.planSlot(rep)
	if err != nil {
		return restorePoint{}, err
	}
	return h.executeRestore(rep, plan)
}

// launchReplica is the one place a replica's consumer starts — at Start, on
// a rejoin, for a fresh placement; whatever the link. State is already
// installed on the partition; the attach publishes the restore floor and
// opens the stream at at.offset, and the hub keeps the slot out of read
// service until the live report, due once every offset that existed at
// launch is applied — at once when there is nothing to replay. The caller
// holds ctl. On error the replica is untouched.
func (h *replicaHost) launchReplica(rep *replica, at restorePoint) error {
	_, target, _ := h.link.LogMeta()
	att, sub, err := h.link.ReplicaAttached(rep.pid, rep.idx, rep.gen, at.floor, at.offset, rep.p)
	if err != nil {
		return err
	}
	rep.att, rep.sub = att, sub
	rep.stopped = make(chan struct{})
	rep.clock = ckptClock{}
	rep.applied.Store(at.offset)
	rep.dead.Store(false)
	if h.ckptEveryMS > 0 {
		rep.writer = h.startWriter(rep, at.man)
	}
	rep.target, rep.replaying = target, at.offset < target
	if !rep.replaying {
		att.NotifyLive()
	}
	if at.offset > 0 || target > 0 {
		h.restores.Inc()
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer close(rep.stopped)
		h.consumeBatched(rep)
	}()
	return nil
}

// teardown stops a running replica's consumer and leaves its slot dead:
// mark it (see applyBatch), detach, which ends the consumer's stream, and
// wait for the goroutine — a live report the consumer still issues mid-way
// through its replaying → live transition arrives after the attachment
// ended and is ignored. The async writer stops
// after the consumer (its only sender): pending segments drain to disk
// first, like a kernel flushing a dying process's page cache — the durable
// chain stays valid for a future restore. The caller holds ctl.
func (h *replicaHost) teardown(rep *replica) {
	rep.dead.Store(true)
	rep.att.Close()
	<-rep.stopped
	stopWriter(rep)
}
