// Package cluster wires the complete system of the paper's §2 into one
// in-process deployment: an edge firehose topic that every partition
// replica consumes in full, hash-partitioned detection servers with
// replication, a broker tier for fan-out reads, a candidate queue, and the
// delivery pipeline. The topology is "a fairly standard partitioned,
// replicated architecture with coordination handled by brokers that
// fan-out queries and gather results".
//
// # Failure and recovery
//
// Two failure models are provided. FailReplica/RecoverReplica model
// transient unreachability: the replica keeps its state and keeps
// consuming, but reads route around it and candidate emission fails over —
// experiment E9's scenario. KillReplica models a real crash: the replica
// stops consuming the firehose and its entire recoverable state (the D
// store, sweep clock, candidate log, item counters) is dropped.
//
// A killed replica rejoins through RestoreReplica: it installs the newest
// durable restore point (its checkpoint chain — a compacted base plus
// incremental delta segments, written per replica when Config.CheckpointDir
// is set — or a base from the partition's pool), then replays the retained
// firehose log from that point until it reaches the offset that was the
// head when recovery began. Until then the broker keeps the replica marked
// down, so a stale replica never serves reads. With Config.LogDir the
// firehose log itself is durable (a segmented on-disk WAL) and the failure
// model extends to the whole process: Shutdown drains, cuts a final
// checkpoint per replica, and fsyncs the log; Reopen builds a brand-new
// Cluster over the same directories, every replica restoring the same way.
// restore.go holds the one plan → execute → launch sequence all of these
// share.
//
// # Incremental checkpoint pipeline
//
// Checkpointing is split into a cheap synchronous cut and asynchronous
// persistence. On the apply loop, a cut only captures the entries dirtied
// since the previous cut (partition.CaptureDelta — cost proportional to
// recent write activity, not store size). Encoding, fsync, and manifest
// publication run on a per-replica writer goroutine fed through a small
// bounded queue, so a slow disk back-pressures the replica instead of
// growing unbounded memory. The writer folds long delta chains back into
// a fresh base (compaction), which bounds restore composition time and
// advances the replica's restore floor. The cluster truncates the
// retained firehose log below the minimum floor across replicas — log
// compaction — so retained-log memory is bounded by checkpoint cadence
// rather than stream length. The delivery consumer's per-group high-water
// offsets are persisted alongside the checkpoints, closing the
// promoted-replica gap (a sole-coverage restore clamps its chain back to
// the group's delivered offset). docs/DURABILITY.md states the full
// contract and its safety arguments.
//
// # Elastic placement
//
// Replica membership is dynamic (see elastic.go and internal/placement):
// each replica is a *placement* on a virtual node, with a generation that
// advances on node replacement. ReprovisionReplica discards a dead (or
// planned-out live) replica's slot entirely — new directory, fresh S —
// and rebuilds its state from the partition's replicated base pool plus
// durable-log replay; AddReplica/DecommissionReplica grow and shrink a
// group while the stream is flowing; and with Config.MirrorBases > 0 the
// checkpoint compactor replicates every fresh base to peer replica
// directories, which is what turns "corrupt base above a truncated log"
// from the documented unrecoverable corner into a recoverable one. The
// delivery tier's per-group offset filter is membership-independent, so
// exactly-once survives every one of these transitions.
//
// # Exactly-once candidate delivery
//
// Detection is deterministic and idempotent, so every alive replica of a
// group forwards its (identical) candidate batches toward delivery,
// tagged with the firehose offset of the triggering event. The delivery
// consumer keeps a per-group high-water offset and processes a batch only
// if its offset is new — at-least-once emission collapsed to exactly-once
// per event per group. This is what makes crash recovery lossless without
// coordination: a replica can die, rejoin, and replay — its re-emitted
// batches for already-covered offsets are dropped by construction, and
// any offsets its peers covered while it was gone were delivered from
// their copies. The fault-equivalence oracle tests pin this end to end:
// a kill/checkpoint/restore/replay run delivers exactly the notification
// set of a no-fault run.
package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/placement"
	"motifstream/internal/queue"
	"motifstream/internal/statstore"
	"motifstream/internal/transport"
)

// Config assembles a Cluster.
type Config struct {
	// Partitions is the number of partitions (paper: 20). Required >= 1.
	Partitions int
	// Replicas is the number of replicas per partition; 0 selects 1.
	Replicas int
	// StaticEdges are the global A→B follow edges loaded into every
	// partition's S (each keeps only its own A's).
	StaticEdges []graph.Edge
	// MaxInfluencers caps B's per A in S; 0 = unlimited.
	MaxInfluencers int
	// Dynamic configures each replica's D store.
	Dynamic dynstore.Options
	// NewPrograms constructs the motif programs for one replica. Programs
	// hold no mutable state in this codebase, but giving each replica its
	// own instances mirrors a real deployment and keeps the option open.
	// Required.
	NewPrograms func() []motif.Program
	// DisableSharing turns off each replica engine's shared-prefix
	// execution trie, running every planned motif's probes independently
	// per event. Detection output is identical either way; this exists for
	// differential tests and the multi-query benchmark's baseline mode.
	DisableSharing bool
	// IngestDelay models the firehose→partition queue hop; nil = NoDelay.
	IngestDelay queue.DelayModel
	// DeliveryDelay models the partition→push-gateway hop; nil = NoDelay.
	DeliveryDelay queue.DelayModel
	// Delivery configures the push pipeline.
	Delivery delivery.Options
	// ApplyBatch bounds how many envelopes a replica consumer drains from
	// its subscription into one batch: it runs candidate generation for
	// the whole batch (fanned across ApplyWorkers), then republishes
	// candidates and cuts checkpoints in offset order through an ordered
	// commit stage. A batch ends early wherever a D sweep or a checkpoint
	// cut is due, so recoverable state and delivered notifications do not
	// depend on the bound (see docs/DURABILITY.md, "Ordering invariants of
	// the apply loop"). 0 or 1 applies one envelope at a time.
	ApplyBatch int
	// ApplyWorkers bounds the per-replica worker pool for in-batch
	// candidate generation. Envelopes are sharded by edge target — same
	// target, same worker, offset order within a worker — which keeps
	// detection exact because motif programs only read D at the
	// triggering edge's target. 0 or 1 runs detection inline on the
	// consumer goroutine, as does a batch of one.
	ApplyWorkers int
	// Seed seeds the delay samplers.
	Seed int64
	// Metrics receives cluster instrumentation; nil creates a private one.
	Metrics *metrics.Registry
	// OnNotify, if set, receives every delivered notification.
	OnNotify func(delivery.Notification)
	// CheckpointDir, when non-empty, enables the recovery subsystem: the
	// firehose retains its log for offset replay, each replica writes
	// periodic durable checkpoints here, and KillReplica/RestoreReplica
	// become available. The directory is created if missing.
	CheckpointDir string
	// LogDir, when non-empty, stores the retained firehose log as a
	// durable segmented WAL on disk instead of in memory. The log — and
	// therefore every checkpoint offset — then outlives the process:
	// checkpoints are gated by the log's persistent identity (plus their
	// own checksums) rather than a per-process run id, and constructing a
	// cluster over an existing LogDir+CheckpointDir restores every
	// replica from its chain and replays the log from its floor (see
	// Reopen). Requires CheckpointDir: the restart path needs the
	// delivery high-water offsets persisted there to keep replayed
	// candidate batches exactly-once.
	LogDir string
	// LogSyncEvery is the WAL's fsync batch in records (the bound on the
	// torn tail an OS crash can lose); zero selects 256. Ignored without
	// LogDir.
	LogSyncEvery int
	// LogSegmentBytes is the WAL's segment rotation threshold — also the
	// granularity of firehose log compaction, which deletes whole
	// segments. Zero selects 4 MiB. Ignored without LogDir.
	LogSegmentBytes int64
	// CheckpointInterval is the stream-time interval between per-replica
	// checkpoints; zero selects one minute. Ignored without CheckpointDir.
	CheckpointInterval time.Duration
	// CompactEvery is the number of delta segments a replica's chain
	// accumulates before the async writer folds it into a fresh base;
	// zero selects 8. Ignored without CheckpointDir.
	CompactEvery int
	// StaticSnapshotDir, when non-empty, is where the offline pipeline
	// publishes per-partition S builds (statstore.WriteSnapshot files
	// named s-p%03d.snap). RestoreReplica reloads the partition's file if
	// present, so a rejoining replica serves the newest offline build
	// rather than the S it was constructed with; re-provisioned and
	// scaled-out replicas build their fresh S straight from it.
	StaticSnapshotDir string
	// Audit enables the detection-state fingerprint audit (internal/audit):
	// every checkpoint cut also records a CRC32C fingerprint of the
	// replica's full recoverable state to an append-only per-replica
	// audit log, the compactor self-checks every composed base against
	// the live cut it re-derives, recovery paths cross-check composed
	// state against recorded fingerprints, and scale-out go-live is gated
	// on a fingerprint match. VerifyFingerprints exposes the cross-replica
	// check. Costs one full-state hash per cut on the apply loop; ignored
	// without CheckpointDir.
	Audit bool
	// MirrorBases is the base replication factor: every base the
	// checkpoint compactor publishes is also mirrored (CRC-verified) to
	// up to this many peer replica directories of the same partition.
	// Mirrors are what make a corrupt base above a truncated firehose log
	// recoverable, and what a re-provisioned replica's state is rebuilt
	// from. Zero disables mirroring. Ignored without CheckpointDir.
	MirrorBases int
	// Listen, when non-empty, runs this cluster as a networked hub: it
	// binds a TCP listener (":0" picks a port; see ListenAddr), owns the
	// durable firehose log, delivery, placement, and broker tiers, and
	// serves every replica slot remotely — worker processes attach over
	// the socket and animate them. Requires LogDir. See networked.go.
	Listen string
	// Join, when non-empty, runs this cluster as a networked worker
	// against the hub listening at this address. The worker consumes the
	// hub's firehose over TCP for the slots in OwnedReplicas, ships
	// candidates back over a sequenced acked stream, and serves reads via
	// its own listener. Requires CheckpointDir (the shared filesystem
	// holding the checkpoint chains); forbids LogDir (the hub owns the
	// log). Mutually exclusive with Listen.
	Join string
	// OwnedReplicas lists the (partition, replica) slots a worker process
	// owns. Required with Join, forbidden otherwise.
	OwnedReplicas [][2]int
	// NetDrainTimeout bounds shutdown flushes: the hub's wait for worker
	// candidate FINs and a worker's wait for candidate acks before a
	// final checkpoint cut (default 30s).
	NetDrainTimeout time.Duration
}

// queueBuffer sizes the firehose and candidate queue channels.
const queueBuffer = 4096

// Replica catch-up states. A replica is born live; KillReplica moves it to
// dead; RestoreReplica moves it to replaying (or straight to live when
// already at the head); applying the catch-up target offset moves
// replaying to live. DecommissionReplica moves any state to removed — a
// terminal tombstone that keeps the group's indices stable.
const (
	replicaLive int32 = iota
	replicaReplaying
	replicaDead
	replicaRemoved
)

// replicaSlot is the cluster-side handle for one running replica: the
// partition state plus the consumer goroutine's lifecycle and catch-up
// bookkeeping. quit/stopped/sub are replaced on every launch; they are only
// written while no consumer goroutine is running.
type replicaSlot struct {
	pid, idx int
	// gen is the placement generation (bumped by ReprovisionReplica) and
	// dir the generation's checkpoint directory ("" without recovery).
	// Both are rewritten only under ctl+topoMu; read them under either.
	gen int
	dir string
	// p is the backing partition. It is an atomic pointer because node
	// replacement swaps in a brand-new partition while observers (tests,
	// the broker's owner) may be reading; nil only on a tombstone slot
	// rebuilt from a persisted decommission.
	p atomic.Pointer[partition.Partition]

	state atomic.Int32

	quit    chan struct{} // closed by teardownLocked to stop the consumer
	stopped chan struct{} // closed by the consumer on exit
	live    chan struct{} // closed when a launch reaches live
	sub     <-chan queue.Envelope[graph.Edge]

	// target is the firehose offset the replica must reach to leave
	// replaying; meaningful only while state == replicaReplaying.
	target uint64
	// clock is the replica's checkpoint stream clock (see ckptClock). Only
	// the consumer goroutine advances it; lifecycle operations reset it
	// while no consumer is running.
	clock ckptClock

	// writer is the replica's async checkpoint persistence goroutine; nil
	// before Start, while dead, and on clusters without recovery. Only
	// the consume goroutine reads it, and it is only rewritten while no
	// consumer is running.
	writer *ckptWriter
	// boot is where New's startup restore left the slot (chain composed and
	// installed), consumed by Start's launch. Zero — empty chain, offset
	// zero — on clusters whose chains do not outlive the process.
	boot restorePoint
	// feed is the slot's subscription on a networked worker (nil
	// elsewhere): live reports travel over it.
	feed *transport.FeedSub
	// floor is the offset of the replica's oldest durable restore point
	// (its base segment's cut offset; zero until the first compaction).
	// The firehose log is only ever truncated below the minimum floor
	// across replicas.
	floor atomic.Uint64
	// applied is the next unapplied feed offset, maintained only on
	// networked workers: a worker's final shutdown cut must claim exactly
	// what this slot applied, not the hub log's head (other workers may
	// be behind or ahead of it).
	applied atomic.Uint64
}

// Cluster is a running deployment.
type Cluster struct {
	cfg    Config
	part   partition.Partitioner
	slots  [][]*replicaSlot
	broker *broker.Broker

	firehose   edgeFeed
	candidates *queue.Topic[candidateMsg]
	pipeline   *delivery.Pipeline

	// wal is the durable firehose log backend when Config.LogDir is set;
	// the cluster owns it and closes it after the last drain in stop.
	wal     *queue.WAL[graph.Edge]
	durable bool
	// chains reports that replica checkpoint chains outlive this process
	// (durable log, or a networked worker whose log lives on the hub):
	// leftover chains are restored rather than wiped, and Shutdown cuts
	// final checkpoints.
	chains bool
	// hub and worker are the networked-deployment roles (networked.go);
	// both nil in a single-process cluster, at most one non-nil.
	hub    *hubState
	worker *workerState

	ckptEveryMS  int64
	compactEvery int
	mirrorBases  int
	// audit is Config.Audit gated on recovery being enabled: fingerprint
	// records live in the replica checkpoint directories.
	audit bool
	// table is the durable placement assignment (generations, scale-out
	// membership, decommission tombstones); nil without CheckpointDir.
	table *placement.Table
	// runID stamps this cluster instance's checkpoint files. With an
	// in-memory firehose log the log dies with the process, so the id is
	// random per construction and foreign-run files are wiped rather than
	// resurrected. With a durable log (Config.LogDir) the id is the WAL's
	// persistent identity: checkpoints stay valid across restarts exactly
	// as long as they index the same on-disk log, and are validated by
	// their checksums instead of the run gate.
	runID uint64

	// initialDelivery seeds runDelivery's per-group high-water offsets on
	// a durable-log restart, so replicas replaying their tail spans do
	// not re-deliver batches the previous run already pushed.
	initialDelivery []uint64

	reg                   *metrics.Registry
	e2eLatency            *metrics.Histogram
	detectLatency         *metrics.Histogram
	cutPause              *metrics.Histogram
	batchSize             *metrics.Histogram
	applyBatches          *metrics.Counter
	ingested              *metrics.Counter
	delivered             *metrics.Counter
	checkpoints           *metrics.Counter
	ckptErrors            *metrics.Counter
	restores              *metrics.Counter
	compactions           *metrics.Counter
	truncated             *metrics.Counter
	staticReloads         *metrics.Counter
	reprovisions          *metrics.Counter
	mirrorsOut            *metrics.Counter
	poolRestores          *metrics.Counter
	fsyncsSaved           *metrics.Counter
	scaleOuts             *metrics.Counter
	scaleIns              *metrics.Counter
	deliveryStateCuts     *metrics.Counter
	deliveryStateRestores *metrics.Counter
	auditRecords          *metrics.Counter
	auditMismatches       *metrics.Counter

	// stateWG tracks in-flight async delivery-state cuts; stateBusy keeps
	// at most one in flight (a busy tick is skipped, the next one captures
	// a strictly newer state). Cuts are only spawned by the delivery
	// goroutine, which waits for the last one before its final exact cut.
	stateWG   sync.WaitGroup
	stateBusy atomic.Bool

	// ctl serializes the replica lifecycle operations (KillReplica,
	// RestoreReplica) and guards the slot fields they rewrite, so
	// concurrent chaos injection cannot double-close a quit channel or
	// race the last-alive-replica guard.
	ctl sync.Mutex
	// truncMu makes a writer's floor-scan-plus-truncate atomic against a
	// restore lowering its replica's floor and subscribing: without it, a
	// writer could read a stale (higher) floor, then truncate the log out
	// from under a replay the restore just started. Writers take only
	// truncMu (never ctl — stopWriterLocked waits on them while holding
	// ctl); RestoreReplica takes ctl then truncMu, so the order is acyclic.
	truncMu sync.Mutex
	// topoMu guards the topology itself — the per-partition slot slices,
	// which grow on AddReplica, and each slot's dir/gen/p, which node
	// replacement rewrites. Mutations additionally hold ctl; lock order
	// is ctl → truncMu → topoMu (topoMu is always innermost), so readers
	// on any path can take the read lock without ordering worries.
	topoMu sync.RWMutex

	wg        sync.WaitGroup
	deliverWG sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
	// started gates the elastic lifecycle calls that must attach to a
	// running delivery pipeline (AddReplica, ReprovisionReplica).
	started atomic.Bool
}

// candidateMsg is one event's worth of candidates from one replica: the
// group it came from and the firehose offset of the triggering event, so
// the delivery consumer can collapse the replicas' redundant emissions to
// exactly one batch per event per group. pubNS carries the triggering
// event's wall-clock publish time (zero for replayed events), letting the
// delivery tier measure real end-to-end detection latency alongside the
// virtual-delay model.
type candidateMsg struct {
	pid    int
	offset uint64
	pubNS  int64
	cands  []motif.Candidate
}

// New validates cfg and builds all partitions and replicas. The cluster is
// idle until Start. With Config.LogDir the construction is also the
// recovery path: an existing durable log is reopened (its identity gates
// the checkpoints), every replica's restore is planned and executed
// (restoreSlot), and Start replays the log from each replica's restore
// point. A fresh LogDir degenerates to a normal cold start.
func New(cfg Config) (c *Cluster, err error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("cluster: need at least one partition")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.NewPrograms == nil {
		return nil, fmt.Errorf("cluster: NewPrograms is required")
	}
	if err := validateNetworked(cfg); err != nil {
		return nil, err
	}
	recovery := cfg.CheckpointDir != ""
	durable := cfg.LogDir != ""
	workerMode := cfg.Join != ""
	hubMode := cfg.Listen != ""
	if durable && !recovery {
		// The restart path leans on the delivery high-water offsets and
		// replica chains stored under CheckpointDir; a durable log alone
		// would replay the world and re-push the previous run's tail.
		return nil, fmt.Errorf("cluster: LogDir requires CheckpointDir")
	}
	if recovery {
		if cfg.CheckpointInterval <= 0 {
			cfg.CheckpointInterval = time.Minute
		}
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
		}
	}
	var wal *queue.WAL[graph.Edge]
	if durable {
		wal, err = queue.OpenWAL(queue.WALOptions[graph.Edge]{
			Dir:          cfg.LogDir,
			Marshal:      marshalEdge,
			Unmarshal:    unmarshalEdge,
			SyncEvery:    cfg.LogSyncEvery,
			SegmentBytes: cfg.LogSegmentBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: durable log: %w", err)
		}
		defer func() {
			if err != nil {
				wal.Close()
			}
		}()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	part := partition.NewHashPartitioner(cfg.Partitions)
	var firehose edgeFeed
	var worker *workerState
	if workerMode {
		// The worker's firehose is the hub's log over a socket; the meta
		// handshake (with retry, so workers can start first) yields the
		// log's identity, which gates every durable artifact below.
		worker, err = newWorkerState(cfg, reg)
		if err != nil {
			return nil, fmt.Errorf("cluster: join %s: %w", cfg.Join, err)
		}
		defer func() {
			if err != nil {
				worker.close()
			}
		}()
		firehose = worker.feed
	} else {
		firehoseOpts := queue.Options{
			Name:   "firehose",
			Delay:  cfg.IngestDelay,
			Buffer: queueBuffer,
			Seed:   cfg.Seed,
			Retain: recovery,
			// The delivery tier sequences on firehose offsets, so offset
			// order must equal every replica's delivery order even when
			// Publish is called from multiple goroutines.
			Ordered: true,
		}
		if durable {
			firehose = queue.NewTopicWithLog[graph.Edge](firehoseOpts, wal)
		} else {
			firehose = queue.NewTopic[graph.Edge](firehoseOpts)
		}
	}
	c = &Cluster{
		cfg:      cfg,
		part:     part,
		reg:      reg,
		wal:      wal,
		durable:  durable,
		firehose: firehose,
		candidates: queue.NewTopic[candidateMsg](queue.Options{
			Name:   "candidates",
			Delay:  cfg.DeliveryDelay,
			Buffer: queueBuffer,
			Seed:   cfg.Seed + 1,
		}),
		pipeline:              delivery.NewPipeline(cfg.Delivery),
		e2eLatency:            reg.Histogram("cluster.e2e_latency"),
		detectLatency:         reg.Histogram("cluster.detect_latency_wall"),
		cutPause:              reg.Histogram("cluster.checkpoint_cut_pause"),
		batchSize:             reg.Histogram("cluster.apply_batch_size"),
		applyBatches:          reg.Counter("cluster.apply_batches"),
		ingested:              reg.Counter("cluster.events"),
		delivered:             reg.Counter("cluster.delivered"),
		checkpoints:           reg.Counter("cluster.checkpoints"),
		ckptErrors:            reg.Counter("cluster.checkpoint_errors"),
		restores:              reg.Counter("cluster.restores"),
		compactions:           reg.Counter("cluster.compactions"),
		truncated:             reg.Counter("cluster.log_truncated_events"),
		staticReloads:         reg.Counter("cluster.static_reloads"),
		reprovisions:          reg.Counter("cluster.reprovisions"),
		mirrorsOut:            reg.Counter("cluster.base_mirrors"),
		poolRestores:          reg.Counter("cluster.base_pool_restores"),
		fsyncsSaved:           reg.Counter("cluster.fsyncs_saved"),
		scaleOuts:             reg.Counter("cluster.scale_outs"),
		scaleIns:              reg.Counter("cluster.scale_ins"),
		deliveryStateCuts:     reg.Counter("cluster.delivery_state_cuts"),
		deliveryStateRestores: reg.Counter("cluster.delivery_state_restores"),
		auditRecords:          reg.Counter("cluster.audit_records"),
		auditMismatches:       reg.Counter("cluster.audit_mismatches"),
	}
	c.chains = durable || workerMode
	c.worker = worker
	if hubMode {
		// The listener itself binds last (below), after the topology
		// exists; the state is installed now so backend callbacks can
		// never observe a half-built hub.
		c.hub = &hubState{
			remotes:      make(map[[2]int]*transport.RemoteReplica),
			drainTimeout: cfg.netDrainTimeout(),
		}
	}
	if recovery {
		c.audit = cfg.Audit
		c.ckptEveryMS = cfg.CheckpointInterval.Milliseconds()
		c.compactEvery = cfg.CompactEvery
		if c.compactEvery <= 0 {
			c.compactEvery = 8
		}
		if durable {
			// Checkpoint offsets index the durable log, so its persistent
			// identity is the gate: a chain survives exactly as long as
			// the log that assigned its offsets.
			c.runID = wal.ID()
		} else if workerMode {
			// A worker's offsets index the hub's durable log; its identity
			// (from the meta handshake) gates the worker's chains exactly
			// as a local WAL's would — and matches the hub's own runID, so
			// both sides agree on the shared placement table and audit
			// records.
			c.runID = worker.feed.LogID()
		} else {
			var id [8]byte
			if _, err := rand.Read(id[:]); err != nil {
				return nil, fmt.Errorf("cluster: run id: %w", err)
			}
			c.runID = binary.LittleEndian.Uint64(id[:])
		}
		c.mirrorBases = cfg.MirrorBases
		// Load the durable placement assignment — generations chosen by
		// past re-provisions, membership changed by past scale events —
		// gated by the run/log identity like every other durable artifact
		// (a foreign table loads empty, a malformed one is counted and
		// replaced at the next mutation).
		tbl, err := placement.Load(placement.TablePath(cfg.CheckpointDir), c.runID)
		if err != nil {
			c.ckptErrors.Inc()
		}
		c.table = tbl
	}

	slots := make([][]*replicaSlot, cfg.Partitions)
	replicaGroups := make([][]broker.Replica, cfg.Partitions)
	var tombstones [][2]int
	for pid := 0; pid < cfg.Partitions; pid++ {
		// The persisted placement table can widen a partition beyond the
		// configured replica count (live scale-out survives restarts) and
		// mark indices decommissioned (tombstones keep peers' indices
		// stable).
		replicas := cfg.Replicas
		if c.table != nil {
			if n := c.table.Replicas(pid); n > replicas {
				replicas = n
			}
		}
		for r := 0; r < replicas; r++ {
			var pl placement.Placement
			if c.table != nil {
				pl = c.table.Get(pid, r)
			}
			slot := &replicaSlot{pid: pid, idx: r, gen: pl.Gen, live: make(chan struct{})}
			if pl.Removed || (workerMode && !worker.owned[[2]int{pid, r}]) {
				// A decommissioned placement — or, on a worker, a slot some
				// other process owns: no partition, no consumer. On the hub
				// and in-process, also a permanent broker tombstone (marked
				// after broker construction below).
				slot.state.Store(replicaRemoved)
				slots[pid] = append(slots[pid], slot)
				if !workerMode {
					replicaGroups[pid] = append(replicaGroups[pid], tombstone{pid: pid})
					tombstones = append(tombstones, [2]int{pid, r})
				}
				continue
			}
			if hubMode {
				// A remote slot: a worker process owns the partition state.
				// The hub keeps the slot's chain directory (shared-fs floor
				// scans and fingerprint audits read it) and a dial-based
				// broker member, born down until the worker attaches and
				// reports live.
				slot.state.Store(replicaDead)
				slot.dir = placement.Dir(cfg.CheckpointDir, pid, r, pl.Gen)
				if err := os.MkdirAll(slot.dir, 0o755); err != nil {
					return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
				}
				rr := transport.NewRemoteReplica(pid, r, 0, reg)
				c.hub.remotes[[2]int{pid, r}] = rr
				slots[pid] = append(slots[pid], slot)
				replicaGroups[pid] = append(replicaGroups[pid], rr)
				tombstones = append(tombstones, [2]int{pid, r})
				continue
			}
			p, err := c.buildPartition(pid, nil)
			if err != nil {
				return nil, fmt.Errorf("cluster: partition %d replica %d: %w", pid, r, err)
			}
			slot.p.Store(p)
			if recovery {
				slot.dir = placement.Dir(cfg.CheckpointDir, pid, r, pl.Gen)
				if !c.chains {
					// In-memory log: any leftover chain belongs to a
					// previous run whose firehose log is gone, so it is
					// wiped rather than resurrected. A cluster whose log
					// outlives the process (durable, or networked worker)
					// keeps the directory — restoring it is the point —
					// and relies on the log-identity gate plus segment
					// checksums instead.
					if err := os.RemoveAll(slot.dir); err != nil {
						return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
					}
				}
				if err := os.MkdirAll(slot.dir, 0o755); err != nil {
					return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
				}
			}
			slots[pid] = append(slots[pid], slot)
			if !workerMode {
				replicaGroups[pid] = append(replicaGroups[pid], p)
			}
		}
	}
	c.slots = slots
	if workerMode {
		// Every owned slot must have materialized: the configured geometry
		// plus the shared placement table are the authority, and silently
		// running without a claimed slot would strand its partition.
		for or := range worker.owned {
			if or[1] >= len(slots[or[0]]) {
				return nil, fmt.Errorf("cluster: owned replica %d/%d does not exist in the placement geometry", or[0], or[1])
			}
			if slots[or[0]][or[1]].state.Load() == replicaRemoved {
				return nil, fmt.Errorf("cluster: owned replica %d/%d is decommissioned", or[0], or[1])
			}
		}
	}
	if c.chains && !hubMode {
		// Restore every replica now, so Start only has to launch at the
		// planned offsets. The hub skips this: its slots are remote, and
		// the worker that owns each chain restores it — against the shared
		// CheckpointDir, with offsets indexing the hub's log.
		for _, group := range c.slots {
			for _, slot := range group {
				if slot.state.Load() == replicaRemoved {
					continue
				}
				if slot.boot, err = c.restoreSlot(slot); err != nil {
					return nil, err
				}
			}
		}
	}
	if durable {
		// The replicas are about to replay their tail spans, and those
		// batches were already pushed by a previous run: seed the delivery
		// tier's exactly-once filter AND the pipeline's
		// suppression state (dedup LRU + fatigue budgets) from
		// delivery.state, which bundles both as one atomic snapshot: a
		// (user, item) pair pushed before the shutdown stays suppressed
		// across the restart, daily budgets are not silently reset, and
		// the filter can never run ahead of the dedup state because they
		// were captured together. A missing, foreign, or corrupt
		// delivery.state degrades to the fresher-but-unpaired
		// delivery.off seeds with a fresh pipeline — the documented
		// pre-durable-state tolerance (a repeated pair may be re-pushed
		// once), never a failed reopen.
		if offs, ok := c.loadDeliveryState(); ok {
			c.initialDelivery = offs
		} else {
			c.initialDelivery = c.loadDeliveryOffsets()
		}
		// Clamp the seeds to the recovered log head: after a torn-tail
		// crash the log may have lost a suffix whose offsets the delivery
		// filter already covered — those offsets are about to be REUSED by
		// brand-new events, and a seed beyond the head would drop their
		// notifications forever. Clamping down only risks re-delivering
		// the lost span's pushes, the documented duplicate tolerance;
		// never loss (and dedup entries covering the lost span only
		// suppress re-pushes of pairs the previous run demonstrably
		// delivered).
		head := c.firehose.Published()
		for i, off := range c.initialDelivery {
			if off > head {
				c.initialDelivery[i] = head
			}
		}
	}
	if !workerMode {
		b, err := broker.New(part, replicaGroups)
		if err != nil {
			return nil, err
		}
		c.broker = b
		for _, ts := range tombstones {
			c.broker.MarkDown(ts[0], ts[1])
		}
	}
	if hubMode {
		if err = c.startHubServer(cfg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// marshalEdge and unmarshalEdge are the WAL's record codec for firehose
// events: varint fields, no framing (the WAL frames and checksums).
func marshalEdge(e graph.Edge) ([]byte, error) {
	b := make([]byte, 0, 2*binary.MaxVarintLen64+binary.MaxVarintLen64+1)
	b = binary.AppendUvarint(b, uint64(e.Src))
	b = binary.AppendUvarint(b, uint64(e.Dst))
	b = append(b, byte(e.Type))
	b = binary.AppendVarint(b, e.TS)
	return b, nil
}

func unmarshalEdge(b []byte) (graph.Edge, error) {
	var e graph.Edge
	src, n := binary.Uvarint(b)
	if n <= 0 {
		return e, fmt.Errorf("cluster: edge src: short payload")
	}
	b = b[n:]
	dst, n := binary.Uvarint(b)
	if n <= 0 {
		return e, fmt.Errorf("cluster: edge dst: short payload")
	}
	b = b[n:]
	if len(b) < 1 {
		return e, fmt.Errorf("cluster: edge type: short payload")
	}
	typ := b[0]
	b = b[1:]
	ts, n := binary.Varint(b)
	if n <= 0 {
		return e, fmt.Errorf("cluster: edge ts: short payload")
	}
	if len(b) != n {
		return e, fmt.Errorf("cluster: edge payload has %d trailing bytes", len(b)-n)
	}
	e.Src = graph.VertexID(src)
	e.Dst = graph.VertexID(dst)
	e.Type = graph.EdgeType(typ)
	e.TS = ts
	return e, nil
}

// buildPartition constructs one replica's partition from configuration.
// A non-nil snap is served as S directly (a replacement or scale-out
// replica booting from the newest offline build); nil builds S from
// Config.StaticEdges.
func (c *Cluster) buildPartition(pid int, snap *statstore.Snapshot) (*partition.Partition, error) {
	return partition.New(partition.Config{
		ID:             pid,
		StaticEdges:    c.cfg.StaticEdges,
		StaticSnapshot: snap,
		Partitioner:    c.part,
		MaxInfluencers: c.cfg.MaxInfluencers,
		Dynamic:        c.cfg.Dynamic,
		Programs:       c.cfg.NewPrograms(),
		DisableSharing: c.cfg.DisableSharing,
		Metrics:        c.reg,
	})
}

// Start launches one consumer goroutine per replica plus the delivery
// consumer. It may be called once; later calls are no-ops. Each replica
// launches from the restore point New left it at (launchReplica): on a
// cluster whose chains outlived the previous process it replays the log
// through the replaying→live catch-up machine exactly as a RestoreReplica
// rejoin would; on a cold start it is live at once.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		// Delivery subscribes first: the candidate queue retains nothing, so
		// a batch a replaying replica publishes before then would be lost.
		c.startDelivery()
		c.ctl.Lock()
		for _, group := range c.slots {
			for _, slot := range group {
				// Hub slots are remote: a worker process runs the consumer;
				// the hub only serves its feed and brokers its reads.
				if c.hub != nil || slot.state.Load() == replicaRemoved {
					continue
				}
				if err := c.launchReplica(slot, slot.boot); err != nil {
					// Unreachable in process: New validated the restore
					// point against the log's bounds and nothing can publish
					// or truncate before Start. Leave the replica dead
					// rather than crash.
					c.ckptErrors.Inc()
					slot.state.Store(replicaDead)
					if c.broker != nil {
						c.broker.MarkDown(slot.pid, slot.idx)
					}
				}
			}
		}
		c.ctl.Unlock()
		c.started.Store(true)
	})
}

// startDelivery launches the candidate queue's consumer: the delivery
// pipeline, or on a worker the forwarder that ships candidates to the hub.
func (c *Cluster) startDelivery() {
	sub := c.candidates.Subscribe()
	c.deliverWG.Add(1)
	if c.worker != nil {
		go c.runForwarder(sub)
	} else {
		go c.runDelivery(sub)
	}
}

// runReplica runs the replica's consumer (consumeBatched, parallel.go) —
// live from Start, or replay-then-live from a restore — until the topic
// closes or KillReplica pulls the plug.
func (c *Cluster) runReplica(slot *replicaSlot) {
	defer c.wg.Done()
	defer close(slot.stopped)
	c.consumeBatched(slot)
}

// cutCheckpoint is the synchronous half of an incremental checkpoint: it
// captures the state dirtied since the last cut — cost proportional to
// recent write activity, not store size — and hands it to the replica's
// async writer for encoding, fsync, and manifest publication. The send
// blocks when the writer's small queue is full, back-pressuring the apply
// loop instead of letting pending checkpoint memory grow without bound.
func (c *Cluster) cutCheckpoint(slot *replicaSlot, nextOffset uint64) {
	w := slot.writer
	if w == nil {
		return
	}
	if c.worker != nil && !c.worker.fw.WaitDrained(c.worker.drainTimeout) {
		// The hub has not acked every candidate message published below
		// this offset: a cut now could durably cover offsets whose
		// candidates exist only in this process. Skip the cut entirely —
		// the dirty keys stay captured by the next one. (Checked before
		// CaptureDelta: a post-capture skip would drop the delta.)
		c.ckptErrors.Inc()
		return
	}
	start := time.Now()
	delta := slot.p.Load().CaptureDelta()
	job := ckptJob{delta: delta, offset: nextOffset}
	c.stampFingerprint(slot, &job)
	w.jobs <- job
	// Observed after the send so the metric is the apply loop's whole
	// checkpoint stall: capture plus any backpressure wait on a slow
	// writer — the honest number an operator watches to confirm
	// checkpointing is not pausing ingest.
	c.cutPause.Observe(time.Since(start))
}

// stampFingerprint attaches the replica's current state fingerprint to a
// checkpoint job when auditing is on. Called on the apply loop (or at
// drained shutdown) — the only places Apply is quiescent, which the
// fingerprint's streaming encode requires. A failed encode is counted and
// the cut proceeds unaudited: the audit is advisory, the cut is not.
func (c *Cluster) stampFingerprint(slot *replicaSlot, job *ckptJob) {
	if !c.audit {
		return
	}
	fp, err := slot.p.Load().Fingerprint()
	if err != nil {
		c.ckptErrors.Inc()
		return
	}
	job.fp, job.hasFP = fp, true
}

// runDelivery consumes candidate batches and runs the push pipeline.
// nextOffset[g] is group g's exactly-once high-water mark: a batch is
// processed only when its firehose offset has not been covered yet, so
// the replicas' redundant emissions — including a recovering replica's
// replay — produce exactly one delivery attempt per candidate.
func (c *Cluster) runDelivery(sub <-chan queue.Envelope[candidateMsg]) {
	defer c.deliverWG.Done()
	nextOffset := make([]uint64, c.cfg.Partitions)
	// A durable-log restart seeds the filter from the persisted offsets:
	// every replica is about to replay its tail span, and the previous
	// run already delivered those batches.
	copy(nextOffset, c.initialDelivery)
	persist := c.cfg.CheckpointDir != ""
	batches := 0
	for env := range sub {
		if env.Msg.offset < nextOffset[env.Msg.pid] {
			continue // another replica's copy already covered this event
		}
		nextOffset[env.Msg.pid] = env.Msg.offset + 1
		// Wall-clock detection latency, measured once per accepted batch:
		// first publish of the triggering event to the moment its candidates
		// reach the delivery tier. Replayed events carry pubNS zero and are
		// excluded — recovery lag is the replay-rate metric's job, not this
		// one's.
		if env.Msg.pubNS > 0 {
			if d := time.Duration(time.Now().UnixNano() - env.Msg.pubNS); d >= 0 {
				c.detectLatency.Observe(d)
			}
		}
		for _, cand := range env.Msg.cands {
			decision, note := c.pipeline.Offer(cand, env.VirtualDelay)
			if decision != delivery.Delivered {
				continue
			}
			c.delivered.Inc()
			c.e2eLatency.Observe(note.Latency)
			if c.cfg.OnNotify != nil {
				c.cfg.OnNotify(*note)
			}
		}
		if persist {
			// Periodically persist the per-group high-water offsets next
			// to the checkpoints: RestoreReplica reads them to clamp a
			// sole-coverage rejoin back to the delivered point.
			if batches++; batches%deliveryPersistEvery == 0 {
				c.persistDeliveryOffsets(nextOffset, false)
			}
			// And, on a coarser cadence, cut the delivery restart state —
			// the pipeline's suppression state (dedup LRU + fatigue
			// budgets) bundled with the filter offsets captured right now
			// — written asynchronously so the encode and fsync never
			// stall the delivery tier.
			if batches%deliveryStatePersistEvery == 0 {
				c.cutDeliveryStateAsync(append([]uint64(nil), nextOffset...))
			}
		}
	}
	if persist && batches > 0 {
		// Final exact persists at the drained point: wait out any async
		// state cut, then write the state+offsets snapshot (one atomic
		// file — a restart seeded from it can never run its filter ahead
		// of the dedup state restored with it; docs/DURABILITY.md,
		// "Durable delivery-pipeline state") and the standalone offsets
		// file, which remains the mid-run clamp source and the restart
		// fallback when the snapshot is missing or corrupt.
		c.stateWG.Wait()
		c.persistDeliveryState(nextOffset)
		c.persistDeliveryOffsets(nextOffset, true)
	}
}

// Publish feeds one edge into the firehose. It blocks when consumers lag
// (backpressure) and fails after Stop.
func (c *Cluster) Publish(e graph.Edge) error {
	if err := c.firehose.Publish(e, 0); err != nil {
		return err
	}
	c.ingested.Inc()
	return nil
}

// Stop closes the firehose, waits for partitions to drain — a replica
// mid-catch-up finishes its replay first — then stops the checkpoint
// writers (pending cuts land on disk), closes the candidate queue, and
// waits for delivery. Safe to call multiple times; must not be called
// concurrently with RestoreReplica.
func (c *Cluster) Stop() { c.stop(false) }

// Shutdown is the graceful durable stop: Stop plus one final checkpoint
// cut per alive replica at the drained head — so a subsequent Reopen
// composes straight to the end of the log instead of replaying the whole
// last checkpoint interval — and a hard fsync barrier on the durable log
// before it closes. On a cluster without Config.LogDir it behaves exactly
// like Stop (the final cuts would be wiped at the next construction
// anyway). On a networked worker the final cuts are gated on candidate
// acks and claim each slot's applied offset.
func (c *Cluster) Shutdown() { c.stop(c.chains) }

func (c *Cluster) stop(finalCut bool) {
	c.stopOnce.Do(func() {
		c.firehose.Close()
		c.wg.Wait()
		if c.hub != nil {
			// The topic close above ended every feed with EOS; wait for
			// the workers' candidate FIN exchanges — including workers that
			// were mid-reconnect when the stream closed and still need to
			// replay the tail — so everything they flushed lands in the
			// delivery queue before it closes.
			if !c.hub.server.DrainWorkers(c.hub.drainTimeout) {
				c.ckptErrors.Inc()
			}
		}
		if finalCut && c.worker != nil {
			// Final cuts claim applied offsets, so the ack gate must cover
			// them. On timeout skip the cuts — the chains stay at their
			// last sound offsets.
			if !c.worker.fw.WaitDrained(c.worker.drainTimeout) {
				c.ckptErrors.Inc()
				finalCut = false
			}
		}
		c.ctl.Lock()
		for _, group := range c.slots {
			for _, slot := range group {
				if st := slot.state.Load(); finalCut && slot.writer != nil && st != replicaDead && st != replicaRemoved {
					// The consumers have drained: every retained envelope
					// is applied and its candidates are in the delivery
					// queue, so a cut claiming the full head is sound. An
					// empty delta means the chain head already covers the
					// log (nothing applied since the last cut) — skip the
					// no-op segment.
					if delta := slot.p.Load().CaptureDelta(); delta.Len() > 0 {
						offset := c.firehose.Published()
						if c.worker != nil {
							// This slot applied exactly this much of the
							// hub's log; the cached head may be ahead.
							offset = slot.applied.Load()
						}
						job := ckptJob{delta: delta, offset: offset}
						c.stampFingerprint(slot, &job)
						slot.writer.jobs <- job
					}
				}
				stopWriterLocked(slot)
			}
		}
		c.ctl.Unlock()
		c.candidates.Close()
		c.deliverWG.Wait()
		if c.worker != nil {
			// The forwarder finished (FIN acked) inside runForwarder,
			// which deliverWG just waited out.
			c.worker.close()
		}
		if c.hub != nil {
			c.hub.server.Close()
			for _, rr := range c.hub.remotes {
				rr.Close()
			}
		}
		if c.wal != nil {
			// Consumers and replayers have drained; everything appended is
			// fsynced by the close, so the checkpoints written above never
			// claim offsets the log could lose.
			if err := c.wal.Close(); err != nil {
				c.ckptErrors.Inc()
			}
		}
	})
}

// Broker returns the read-path broker.
func (c *Cluster) Broker() *broker.Broker { return c.broker }

// Pipeline returns the delivery pipeline (for funnel stats).
func (c *Cluster) Pipeline() *delivery.Pipeline { return c.pipeline }

// Metrics returns the cluster's registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// Partitioner returns the cluster's A-space partitioner.
func (c *Cluster) Partitioner() partition.Partitioner { return c.part }

// slot validates indices and returns the slot. The topology read lock
// covers the group slice, which AddReplica grows mid-run.
func (c *Cluster) slot(pid, r int) (*replicaSlot, error) {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	if pid < 0 || pid >= len(c.slots) {
		return nil, fmt.Errorf("cluster: partition %d out of range", pid)
	}
	if r < 0 || r >= len(c.slots[pid]) {
		return nil, fmt.Errorf("cluster: replica %d out of range for partition %d", r, pid)
	}
	return c.slots[pid][r], nil
}

// Replica returns the given replica, for tests and failure injection.
// Decommissioned slots have no partition and return an error.
func (c *Cluster) Replica(pid, r int) (*partition.Partition, error) {
	slot, err := c.slot(pid, r)
	if err != nil {
		return nil, err
	}
	if slot.state.Load() == replicaRemoved {
		return nil, fmt.Errorf("cluster: replica %d/%d is decommissioned", pid, r)
	}
	p := slot.p.Load()
	if p == nil {
		return nil, fmt.Errorf("cluster: replica %d/%d is remote (runs in a worker process)", pid, r)
	}
	return p, nil
}

// FailReplica marks a replica down for reads — experiment E9's failover
// scenario. The replica keeps its state and keeps consuming (transient
// unreachability), so candidate delivery continues seamlessly from the
// surviving copies; use KillReplica for real state loss.
func (c *Cluster) FailReplica(pid, r int) error {
	if c.broker == nil {
		return ErrNotLocal
	}
	return c.broker.MarkDown(pid, r)
}

// RecoverReplica marks a flag-failed replica healthy again. Replicas
// killed with KillReplica must rejoin through RestoreReplica instead:
// their state is gone, so serving reads would be a lie.
func (c *Cluster) RecoverReplica(pid, r int) error {
	if c.broker == nil {
		return ErrNotLocal
	}
	slot, err := c.slot(pid, r)
	if err != nil {
		return err
	}
	if slot.state.Load() != replicaLive {
		return fmt.Errorf("cluster: replica %d/%d is not merely flagged down; use RestoreReplica", pid, r)
	}
	return c.broker.MarkUp(pid, r)
}

// Stats summarizes a running cluster.
type Stats struct {
	Events      uint64
	Delivered   uint64
	Checkpoints uint64
	Restores    uint64
	// Compactions counts delta chains folded into fresh bases by the
	// async writers.
	Compactions uint64
	// Reprovisions counts node replacements (ReprovisionReplica).
	Reprovisions uint64
	// BaseMirrors counts base checkpoints replicated to peer replica
	// directories; BasePoolRestores counts restores that recovered state
	// from the partition's base pool (a mirror or a peer's base) rather
	// than the replica's own chain.
	BaseMirrors      uint64
	BasePoolRestores uint64
	// FsyncsSaved counts fsyncs the async writers elided by coalescing
	// queued checkpoint cuts into one segment per drain.
	FsyncsSaved uint64
	// DeliveryStateCuts counts durable snapshots of the delivery
	// pipeline's suppression state (dedup LRU + fatigue budgets);
	// DeliveryStateRestores counts restarts that installed one.
	DeliveryStateCuts, DeliveryStateRestores uint64
	// ScaleOuts and ScaleIns count live membership changes (AddReplica /
	// DecommissionReplica).
	ScaleOuts, ScaleIns uint64
	// AuditRecords counts fingerprint records appended to the per-replica
	// audit logs; AuditMismatches counts fingerprint disagreements the
	// pipeline itself detected (compaction self-checks, recovery
	// cross-checks, go-live gates). Any nonzero mismatch count means two
	// recovery-equivalent states differed — run VerifyFingerprints for
	// the offsets. Zero without Config.Audit.
	AuditRecords, AuditMismatches uint64
	// LogTruncatedBelow is the firehose log's compaction horizon: every
	// retained offset is at or above it. Zero until the first truncation.
	LogTruncatedBelow uint64
	// ApplyBatches counts batches applied by the replica apply loops (one
	// per envelope with ApplyBatch <= 1); ApplyBatchSize is the
	// distribution of envelopes per batch (unitless counts).
	ApplyBatches   uint64
	ApplyBatchSize metrics.Snapshot
	// CutPause is the distribution of apply-loop pauses taken by
	// checkpoint cuts: delta capture plus any backpressure wait on the
	// async writer (encode and fsync themselves happen off-loop).
	CutPause   metrics.Snapshot
	E2ELatency metrics.Snapshot
	// DetectLatency is the wall-clock distribution from an event's first
	// publish to its candidate batch reaching the delivery tier. Unlike
	// E2ELatency (the simulated virtual-delay model), this measures the
	// process's real scheduling and queueing; replayed events are excluded.
	DetectLatency metrics.Snapshot
	Funnel        delivery.FunnelStats
}

// Stats returns current cluster totals.
func (c *Cluster) Stats() Stats {
	return Stats{
		Events:                c.ingested.Value(),
		Delivered:             c.delivered.Value(),
		Checkpoints:           c.checkpoints.Value(),
		Restores:              c.restores.Value(),
		Compactions:           c.compactions.Value(),
		Reprovisions:          c.reprovisions.Value(),
		BaseMirrors:           c.mirrorsOut.Value(),
		BasePoolRestores:      c.poolRestores.Value(),
		FsyncsSaved:           c.fsyncsSaved.Value(),
		DeliveryStateCuts:     c.deliveryStateCuts.Value(),
		DeliveryStateRestores: c.deliveryStateRestores.Value(),
		ScaleOuts:             c.scaleOuts.Value(),
		ScaleIns:              c.scaleIns.Value(),
		AuditRecords:          c.auditRecords.Value(),
		AuditMismatches:       c.auditMismatches.Value(),
		LogTruncatedBelow:     c.firehose.LogStart(),
		ApplyBatches:          c.applyBatches.Value(),
		ApplyBatchSize:        c.batchSize.Snapshot(),
		CutPause:              c.cutPause.Snapshot(),
		E2ELatency:            c.e2eLatency.Snapshot(),
		DetectLatency:         c.detectLatency.Snapshot(),
		Funnel:                c.pipeline.Stats(),
	}
}

// RecommendationsFor serves a user read through the broker. Workers have
// no broker — the hub fans reads out to them over their read listeners.
func (c *Cluster) RecommendationsFor(a graph.VertexID) ([]motif.Candidate, error) {
	if c.broker == nil {
		return nil, ErrNotLocal
	}
	return c.broker.RecommendationsFor(a)
}

// TopItems fans the "most recommended items" query out to one healthy
// replica of every partition and gathers the merged global top-n — the
// paper's broker fan-out/gather read path.
func (c *Cluster) TopItems(n int) ([]partition.ItemCount, error) {
	if c.broker == nil {
		return nil, ErrNotLocal
	}
	lists, err := broker.FanOut(c.broker, func(r broker.Replica) []partition.ItemCount {
		// Behavioral interface, not a concrete type: both local partitions
		// and the hub's dial-based remote members serve the query.
		q, ok := r.(interface {
			TopItems(int) []partition.ItemCount
		})
		if !ok {
			return nil
		}
		return q.TopItems(n)
	})
	if err != nil {
		return nil, err
	}
	return partition.MergeItemCounts(lists, n), nil
}

// Run ingests every edge from the slice, then stops the cluster and
// returns final stats — the one-call path used by examples and benches.
func Run(cfg Config, edges []graph.Edge) (Stats, error) {
	c, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	c.Start()
	for _, e := range edges {
		if err := c.Publish(e); err != nil {
			return Stats{}, err
		}
	}
	c.Stop()
	return c.Stats(), nil
}

// Elapsed measures the wall-clock cost of fn; a convenience for throughput
// reporting in cmd/benchreport.
func Elapsed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
