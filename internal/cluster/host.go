package cluster

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"motifstream/internal/broker"
	"motifstream/internal/partition"
	"motifstream/internal/placement"
	"motifstream/internal/statstore"
	"motifstream/internal/transport"
)

// hubLink is the replica host's whole view of the hub tier — the client
// side of the contract transport.HubBackend spells out server-side
// (docs/OPERATIONS.md, "Replica host ↔ hub contract"). *hubTier implements
// it with plain function calls, tcpLink (networked.go) over sockets.
type hubLink interface {
	// LogMeta reports the firehose log's identity and current bounds.
	LogMeta() (id, head, start uint64)
	// ReplicaAttached claims slot (pid, r) at generation gen for a replica
	// restored to resume whose oldest durable restore point is floor, and
	// returns the handle for the slot's live, floor and detach reports plus
	// the firehose as a stream read at the replica's own offset, from
	// resume on, which the handle's Close ends; reads is where the broker
	// finds the replica.
	ReplicaAttached(pid, r, gen int, floor, resume uint64, reads broker.Replica) (transport.Attachment, transport.Stream, error)
	// offer hands one event's candidates toward delivery.
	offer(msg transport.CandMsg) error
	// acked is the checkpoint ack gate: whether the hub's delivery loop has
	// decided — filtered or run through the pipeline — every message
	// offered before the call. In process it waits without bound; over TCP
	// at most NetDrainTimeout, reporting false past it.
	acked() bool
	// closeFeed ends every attached stream (each reads to its end, then
	// io.EOF); close releases the link after the host's last offer,
	// returning what the tier it reaches could not finish.
	closeFeed()
	close() error
}

// placed names one placement's checkpoint directory — what the base-pool,
// mirror and audit scans need to know about a partition's replicas.
type placed struct {
	idx, gen int
	dir      string
}

// replica is the host's handle for one replica it runs: the partition state
// plus the consumer goroutine's lifecycle and catch-up bookkeeping. The
// placement fields (dir is "" without recovery) never change — node
// replacement swaps in a whole new replica; att/sub/stopped are
// replaced on every launch, written only while no consumer is running.
type replica struct {
	pid, idx, gen int
	dir           string
	p             *partition.Partition

	// dead is set before a teardown pulls the plug (see applyBatch).
	dead atomic.Bool

	att     transport.Attachment
	sub     transport.Stream
	stopped chan struct{} // closed by the consumer on exit

	// replaying: the consumer has not yet applied target, the log head it
	// saw at launch, and owes the hub a live report when it does. Only the
	// consumer goroutine touches either after launch, or clock, the
	// replica's checkpoint stream clock (see ckptClock).
	replaying bool
	target    uint64
	clock     ckptClock
	// applied is the next unapplied feed offset: what a final shutdown cut
	// claims.
	applied atomic.Uint64

	// fpBuf is the encoded base the apply loop's audit fingerprints are read
	// from (stampFingerprint); nil with auditing off.
	fpBuf []byte

	// mirrored maps each peer index to the offset of the newest base this
	// replica pushed there intact: restore points its floor must keep the
	// log under (floor). executeRestore rebuilds it from disk; after that
	// only the writer goroutine touches it (mirrorBase).
	mirrored map[int]uint64

	// writer is the replica's async checkpoint persistence goroutine; nil
	// before Start, while dead, and on clusters without recovery.
	writer *ckptWriter
	// boot is where construction's startup restore left the replica (chain
	// composed and installed), consumed by start's launch. Zero — empty
	// chain, offset zero — without recovery.
	boot restorePoint
}

// floor is the replica's claim on the log's truncation horizon: the lowest
// of its chain's base offset and the bases it mirrored to peers. A mirror
// outlives its source's chain (a kill, a corrupt base), and then it is the
// partition's only restore point for the span above it.
func (rep *replica) floor(base uint64) uint64 {
	for _, off := range rep.mirrored {
		base = min(base, off)
	}
	return base
}

// replicaHost runs replicas: their partitions, apply loops (parallel.go),
// checkpoint writers (recovery.go) and restores (restore.go). What it needs
// from the rest of the system goes through link.
type replicaHost struct {
	*shared
	link hubLink

	// ctl serializes the replica lifecycle operations (start, stop, kill,
	// restore, the elastic calls) and guards the replica fields they
	// rewrite, so concurrent chaos injection cannot double-close an
	// attachment or race the last-alive-replica guard. Writers never take it —
	// stopWriter waits on them while it is held.
	ctl sync.Mutex
	// mu guards the reps slice, which the elastic calls rewrite mid-run
	// (additionally holding ctl).
	mu   sync.RWMutex
	reps []*replica

	wg sync.WaitGroup
	// started gates the elastic lifecycle calls that must attach to a
	// running delivery pipeline (AddReplica, ReprovisionReplica).
	started atomic.Bool

	// statics[pid] is partition pid's S and already-follows index — a
	// function of Config.StaticEdges and pid alone — built by the first
	// place of pid and handed read-only to every later one. Only place
	// touches it, during construction or under ctl.
	statics []*statstore.Snapshot
}

// newReplicaHost builds a replica for every owned placement and — with
// recovery — restores each from its chain now, so start only has to launch
// at the planned offsets.
func newReplicaHost(sh *shared, link hubLink, owned [][2]int) (*replicaHost, error) {
	h := &replicaHost{shared: sh, link: link, statics: make([]*statstore.Snapshot, sh.cfg.Partitions)}
	for _, or := range owned {
		// Geometry plus placement table are the authority: silently running
		// without a claimed slot would strand its partition.
		pls := sh.placements(or[0])
		if or[1] >= len(pls) {
			return nil, fmt.Errorf("cluster: owned replica %d/%d does not exist in the placement geometry", or[0], or[1])
		}
		if pls[or[1]].Removed {
			return nil, fmt.Errorf("cluster: owned replica %d/%d is decommissioned", or[0], or[1])
		}
		// A chain already in the directory stays: the log-identity gate
		// plus segment checksums vouch for it.
		rep, err := h.place(or[0], or[1], pls[or[1]].Gen, false)
		if err != nil {
			return nil, err
		}
		h.reps = append(h.reps, rep)
	}
	if sh.cfg.CheckpointDir != "" {
		for _, rep := range h.reps {
			var err error
			if rep.boot, err = h.restoreSlot(rep); err != nil {
				return nil, err
			}
		}
	}
	return h, nil
}

// place builds the replica of one placement: its partition — serving the
// host's one build of the partition's S and already-follows index, made from
// Config.StaticEdges on the first place of pid — and, with recovery, its
// generation's checkpoint directory, emptied first when wipe.
func (h *replicaHost) place(pid, idx, gen int, wipe bool) (*replica, error) {
	p, err := partition.New(partition.Config{
		ID:             pid,
		StaticEdges:    h.cfg.StaticEdges,
		Partitioner:    h.part,
		MaxInfluencers: h.cfg.MaxInfluencers,
		StaticSnapshot: h.statics[pid],
		Dynamic:        h.cfg.Dynamic,
		Programs:       h.cfg.NewPrograms(),
		Metrics:        h.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: partition %d replica %d: %w", pid, idx, err)
	}
	h.statics[pid] = p.Engine().Static().Snapshot()
	rep := &replica{pid: pid, idx: idx, gen: gen, p: p, mirrored: make(map[int]uint64)}
	if h.cfg.CheckpointDir != "" {
		rep.dir = placement.Dir(h.cfg.CheckpointDir, pid, idx, gen)
		if wipe {
			err = os.RemoveAll(rep.dir)
		}
		if err == nil {
			err = os.MkdirAll(rep.dir, 0o755)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
		}
	}
	return rep, nil
}

// replica returns the hosted replica of slot (pid, r), nil when this
// process does not run it.
func (h *replicaHost) replica(pid, r int) *replica {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, rep := range h.reps {
		if rep.pid == pid && rep.idx == r {
			return rep
		}
	}
	return nil
}

// placed snapshots the checkpoint directories of partition pid's hosted
// replicas under the table lock, for scans that then run outside it.
func (h *replicaHost) placed(pid int) []placed {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []placed
	for _, rep := range h.reps {
		if rep.pid == pid && rep.dir != "" {
			out = append(out, placed{idx: rep.idx, gen: rep.gen, dir: rep.dir})
		}
	}
	return out
}

// start launches every hosted replica from the restore point construction
// left it at: behind the log's head it replays through the replaying → live
// machine exactly as a RestoreReplica rejoin would; on a cold start it is
// live at once.
func (h *replicaHost) start() {
	h.ctl.Lock()
	for _, rep := range h.reps {
		if err := h.launchReplica(rep, rep.boot); err != nil {
			// Unreachable in process: construction validated the restore
			// point against the log's bounds and nothing can publish or
			// truncate before Start. The slot stays dead rather than crash.
			h.ckptErrors.Inc()
		}
	}
	h.ctl.Unlock()
	h.started.Store(true)
}

// stop drains the host: end the feeds, let the consumers apply what is
// buffered, cut final checkpoints when asked, stop the writers, release the
// link, and return the link's close error.
func (h *replicaHost) stop(finalCut bool) error {
	h.link.closeFeed()
	h.wg.Wait()
	if finalCut && !h.link.acked() {
		// Gate closed (see cutCheckpoint): the chains stay at their last
		// sound offsets.
		h.ckptErrors.Inc()
		finalCut = false
	}
	h.ctl.Lock()
	for _, rep := range h.reps {
		if finalCut && rep.writer != nil {
			// The consumer has drained: every envelope it received is
			// applied and its candidates are offered and decided, so a cut
			// claiming everything applied is sound. An empty delta means
			// the chain head already covers it (nothing applied since the
			// last cut) — skip the no-op segment.
			if delta := rep.p.CaptureDelta(); delta.Len() > 0 {
				job := ckptJob{delta: delta, offset: rep.applied.Load()}
				h.stampFingerprint(rep, &job)
				rep.writer.jobs <- job
			}
		}
		stopWriter(rep)
	}
	h.ctl.Unlock()
	return h.link.close()
}
