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
// its state; launchReplica subscribes at the plan's offset and enters the
// replaying → live machine (docs/DURABILITY.md, "Restore planning").

// restoreInputs is everything a restore decision may observe.
type restoreInputs struct {
	// dir is the replica's checkpoint directory; runID gates its manifest.
	dir   string
	runID uint64
	// Offsets in [logStart, head] are the replayable restore points.
	logStart, head uint64
	// pool is the partition's base pool (basePool), newest offset first.
	pool []baseSource
	// alive: some replica of the group is live or replaying and covers the
	// stream meanwhile. When none is, delivered/hasDelivered carry the
	// group's persisted delivery high-water offset.
	alive        bool
	delivered    uint64
	hasDelivered bool
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
	state *partition.CheckpointState
	seed  []byte
	// offset is the replay point — every envelope below it is folded into
	// state — and floor the offset of the base actually installed (zero
	// without one): the replica's claim on the truncation horizon.
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
//     way back to scratch), clamped to the delivered offset when the
//     replica would be its group's only coverage;
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
	// The promoted-replica clamp (defense-in-depth: the last-alive guard
	// makes sole-coverage rejoins unreachable through the public API):
	// rejoining as sole coverage with a chain cut ahead of what the group
	// has delivered would skip the span between them, so fall the chain
	// back to the delivered offset. Two safety bounds: never fall below
	// the durable floor (the log may already be truncated up to it — the
	// residual span is the documented truncation-vs-gap tradeoff), and
	// never destroy segments unless the clamped replay point is actually
	// still retained.
	if used > 0 && !in.alive && in.hasDelivered && in.delivered < offset {
		k := clampChainPrefix(segs[:used], in.delivered)
		if k < 1 && segs[0].kind == segKindBase {
			k = 1
		}
		replayFrom := uint64(0)
		if k > 0 {
			replayFrom = segs[k-1].offset
		}
		if k < used && replayFrom >= in.logStart {
			st, used, offset = composeChain(in.dir, segs[:k])
			plan.mustTrim = true
		}
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
			got, err = plan.state.Fingerprint()
			ok = err == nil
		}
		plan.audited, plan.got, plan.want = ok, got, want
		if !ok {
			plan.faults++
		}
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

// planSlot gathers slot's restore inputs from the running cluster and
// plans its restore. The caller holds ctl (or is New).
func (c *Cluster) planSlot(slot *replicaSlot) (restorePlan, error) {
	in := restoreInputs{
		dir:      slot.dir,
		runID:    c.runID,
		logStart: c.firehose.LogStart(),
		head:     c.firehose.Published(),
		pool:     c.basePool(slot.pid),
		// The slot itself counts: replicas are born live, so at start-up
		// every group has coverage; a killed or freshly placed slot is
		// dead, and only its peers count.
		alive: c.aliveLocked(slot.pid, nil) > 0,
	}
	if !in.alive {
		in.delivered, in.hasDelivered = c.loadDeliveryOffset(slot.pid)
	}
	if c.audit {
		in.recorded = c.recordedFingerprints(slot.pid)
	}
	plan, err := planRestore(in)
	if err != nil {
		return plan, fmt.Errorf("cluster: replica %d/%d: %w", slot.pid, slot.idx, err)
	}
	return plan, nil
}

// executeRestore performs a plan: its durable writes first (seed the chain
// from the pool base, or trim the manifest to the kept prefix), then the
// state install. A diverged plan is counted and still executed — the
// delivery tier's offset filter keeps the group exactly-once regardless,
// and a bricked restore helps nobody; launchPlacement is stricter.
func (c *Cluster) executeRestore(slot *replicaSlot, plan restorePlan) (restorePoint, error) {
	c.ckptErrors.Add(plan.faults)
	man := plan.man
	if plan.seed != nil {
		seeded, err := c.seedChain(slot.dir, plan.seed, plan.offset, man)
		if err != nil {
			// Without a durable seed base the chain would silently compose
			// a hole (deltas cut after the install describe only
			// post-install changes); refuse rather than diverge.
			c.ckptErrors.Inc()
			return restorePoint{}, fmt.Errorf("cluster: replica %d/%d: seeding chain from base pool: %w", slot.pid, slot.idx, err)
		}
		man = seeded
		c.poolRestores.Inc()
	} else if !c.truncateManifest(slot.dir, &man, plan.keep) && plan.mustTrim {
		return restorePoint{}, fmt.Errorf("cluster: replica %d/%d: cannot trim chain to its restore point %d", slot.pid, slot.idx, plan.offset)
	}
	if plan.diverged() {
		c.auditMismatches.Inc()
	}
	if plan.state == nil {
		slot.p.Load().Reset()
	} else {
		slot.p.Load().LoadState(plan.state)
	}
	return restorePoint{man: man, offset: plan.offset, floor: plan.floor}, nil
}

// restoreSlot plans and executes the restore of a slot whose partition was
// built from configuration (New) or survived a kill (RestoreReplica),
// swapping in the newest offline S build on the way.
func (c *Cluster) restoreSlot(slot *replicaSlot) (restorePoint, error) {
	plan, err := c.planSlot(slot)
	if err != nil {
		return restorePoint{}, err
	}
	c.reloadStatic(slot)
	return c.executeRestore(slot, plan)
}

// launchReplica is the one place a replica's consumer starts — at cluster
// Start, on a rejoin, for a fresh placement; in process or, on a networked
// worker, over the hub's feed. State is already installed on the slot; the
// consumer replays the log from at.offset through the replaying → live
// machine. The caller holds ctl. On error the slot is untouched.
func (c *Cluster) launchReplica(slot *replicaSlot, at restorePoint) error {
	// Publish the restore floor and subscribe as one atomic step against
	// the writers' floor-scan-plus-truncate: a stale floor from the slot's
	// previous incarnation could otherwise let a concurrent peer compaction
	// truncate the log out from under the replay we are about to start.
	c.truncMu.Lock()
	slot.floor.Store(at.floor)
	target := c.firehose.Published()
	var err error
	switch {
	case c.worker != nil:
		slot.feed, err = c.worker.feed.SubscribeReplica(slot.pid, slot.idx, slot.gen, at.offset, c.worker.rs.Addr())
		if err == nil {
			slot.sub = slot.feed.C()
			slot.applied.Store(at.offset)
			c.worker.rs.Register(slot.pid, slot.idx, slot.p.Load())
		}
	case c.cfg.CheckpointDir == "":
		// No recovery: the topic retains nothing to replay from.
		slot.sub = c.firehose.Subscribe()
	default:
		slot.sub, err = c.firehose.SubscribeFrom(at.offset)
	}
	c.truncMu.Unlock()
	if err != nil {
		// Only reachable when the chain was lost (corrupt base) after the
		// log below it was truncated; surface rather than silently diverge.
		return fmt.Errorf("cluster: replay from %d: %w", at.offset, err)
	}
	slot.quit = make(chan struct{})
	slot.stopped = make(chan struct{})
	slot.clock = ckptClock{}
	if c.ckptEveryMS > 0 {
		slot.writer = c.startWriter(slot, at.man)
	}
	if at.offset >= target {
		// Nothing to replay: the restore point is already at the head.
		slot.state.Store(replicaLive)
		c.markLive(slot)
		close(slot.live)
	} else {
		// Broker-down until every offset that existed at launch is applied.
		slot.target = target
		slot.state.Store(replicaReplaying)
		if c.broker != nil {
			c.broker.MarkDown(slot.pid, slot.idx)
		}
	}
	if at.offset > 0 || target > 0 {
		c.restores.Inc()
	}
	c.wg.Add(1)
	go c.runReplica(slot)
	return nil
}

// teardownLocked stops a running replica's consumer and leaves the slot
// dead: stop the goroutine, detach the subscription (releasing any
// publisher blocked on its buffer — buffered envelopes are lost, as with a
// dead process), then mark the broker member down. The broker MarkDown
// happens only after the goroutine has stopped: a consumer mid-way through
// its replaying→live transition may still issue a MarkUp, and ordering ours
// after <-slot.stopped guarantees the dead replica ends broker-down. The
// async writer stops after the consumer (its only sender): pending segments
// drain to disk first, like a kernel flushing a dying process's page cache
// — the durable chain stays valid for a future restore. The caller holds
// ctl.
func (c *Cluster) teardownLocked(slot *replicaSlot) error {
	slot.state.Store(replicaDead)
	close(slot.quit)
	c.firehose.Unsubscribe(slot.sub)
	<-slot.stopped
	stopWriterLocked(slot)
	// Fresh, open live channel: closed again when a future launch goes live.
	slot.live = make(chan struct{})
	return c.broker.MarkDown(slot.pid, slot.idx)
}
