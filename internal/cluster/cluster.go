// Package cluster wires the complete system of the paper's §2 into one
// deployment: an edge firehose topic that every partition replica consumes
// in full, hash-partitioned detection servers with replication, a broker
// tier for fan-out reads, a candidate queue, and the delivery pipeline. The
// topology is "a fairly standard partitioned, replicated architecture with
// coordination handled by brokers that fan-out queries and gather results".
//
// A Cluster is two tiers joined by one contract (docs/OPERATIONS.md,
// "Replica host ↔ hub contract"): a hub tier (hub.go) and a replica host
// (host.go) that reaches it only through hubLink — function calls in one
// process, sockets between a Config.Listen hub and its Config.Join workers.
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
// head when recovery began. Until then its slot is replaying and serves no
// read, so a stale replica never answers one. The retained firehose log is
// a segmented on-disk WAL (Config.LogDir, by default under CheckpointDir),
// so the failure model extends to the whole process: Shutdown drains, cuts
// a final checkpoint per replica, and fsyncs the log; New over the same
// directories is the restart, every replica restoring the same way.
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
// compaction — so the retained log's disk is bounded by checkpoint cadence
// rather than stream length. A cut waits until the delivery tier has
// decided every candidate the replica offered below it (the ack gate,
// hubLink.acked), so no chain — and no restore from one — runs ahead of
// what the group has delivered. docs/DURABILITY.md states the full
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
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/codecutil"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/placement"
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
	// HopDelay models each of the two queue hops, firehose→partition and
	// partition→push gateway; nil = none. The hub's delivery loop draws it
	// twice for every accepted event, keyed by the event's offset and Seed
	// for the ingest hop, Seed+1 for the delivery hop (hopdelay.go).
	HopDelay DelayModel
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
	// Seed seeds the delay samples: an event's delay on either hop is a
	// function of Seed and the event's firehose offset alone.
	Seed int64
	// Metrics receives cluster instrumentation; nil creates a private one.
	Metrics *metrics.Registry
	// OnNotify, if set, receives every delivered notification.
	OnNotify func(delivery.Notification)
	// CheckpointDir, when non-empty, enables the recovery subsystem: the
	// firehose retains its log on disk (LogDir) for offset replay, each
	// replica writes periodic durable checkpoints here, and
	// KillReplica/RestoreReplica become available. The directory is
	// created if missing.
	CheckpointDir string
	// LogDir is where the process holding the firehose log keeps it: a
	// durable segmented WAL, so the log — and therefore every checkpoint
	// offset — outlives the process. Checkpoints are gated by the log's
	// persistent identity (plus their own checksums), and constructing a
	// cluster over an existing LogDir+CheckpointDir restores every replica
	// from its chain and replays the log from its floor (see New).
	// Empty selects <CheckpointDir>/firehose. Requires CheckpointDir: the
	// restart path needs the delivery high-water offsets persisted there to
	// keep replayed candidate batches exactly-once.
	LogDir string
	// LogSegmentBytes is the WAL's segment rotation threshold — also the
	// granularity of firehose log compaction, which deletes whole
	// segments. Zero selects 4 MiB. Ignored without CheckpointDir.
	LogSegmentBytes int64
	// CheckpointInterval is the stream-time interval between per-replica
	// checkpoints; zero selects one minute. Ignored without CheckpointDir.
	CheckpointInterval time.Duration
	// CompactEvery is the number of delta segments a replica's chain
	// accumulates before the async writer folds it into a fresh base;
	// zero selects 8. Ignored without CheckpointDir.
	CompactEvery int
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
	// Listen, when non-empty, runs this cluster as a networked hub — the
	// hub tier alone, every replica slot animated by a worker process that
	// attaches over this TCP listener (":0" picks a port; see ListenAddr).
	// Requires CheckpointDir. See docs/OPERATIONS.md, "Multi-process
	// deployment".
	Listen string
	// Join, when non-empty, runs this cluster as a networked worker — a
	// replica host for the slots in OwnedReplicas — against the hub
	// listening at this address. Requires CheckpointDir (the shared
	// filesystem holding the checkpoint chains); forbids LogDir (the hub
	// owns the log). Mutually exclusive with Listen.
	Join string
	// OwnedReplicas lists the (partition, replica) slots a worker process
	// owns. Required with Join, forbidden otherwise.
	OwnedReplicas [][2]int
	// NetDrainTimeout bounds networked shutdown flushes (default 30s): a
	// listening hub's wait for the FIN every slot that attached during its
	// run owes — past it the durable close still runs and Shutdown returns
	// an error naming the slots that never sent one — and a worker's waits
	// for its candidate acks, before a final checkpoint cut and for its FIN.
	NetDrainTimeout time.Duration
}

// queueBuffer sizes the firehose and candidate queue channels.
const queueBuffer = 4096

// shared is what the tiers of one process have in common: the
// configuration, the log identity gating every durable artifact, the
// durable placement assignment, and the instrumentation.
type shared struct {
	cfg  Config
	part partition.Partitioner
	// pipeline is the hub tier's push pipeline (idle on a worker).
	pipeline *delivery.Pipeline

	ckptEveryMS  int64
	compactEvery int
	mirrorBases  int
	// audit is Config.Audit gated on recovery being enabled: fingerprint
	// records live in the replica checkpoint directories.
	audit bool
	// table is the durable placement assignment (generations, scale-out
	// membership, decommission tombstones); never saved without recovery.
	table *placement.Table
	// runID stamps this cluster's checkpoint files: the firehose WAL's
	// persistent identity (the hub's, on a worker; zero without recovery).
	// Checkpoints stay valid across restarts exactly as long as they index
	// the same on-disk log, and are validated by their checksums within it.
	runID uint64

	reg                   *metrics.Registry
	e2eLatency            *metrics.Histogram
	detectLatency         *metrics.Histogram
	cutPause              *metrics.Histogram
	applyBatches          *metrics.Counter
	ingested              *metrics.Counter
	delivered             *metrics.Counter
	checkpoints           *metrics.Counter
	ckptErrors            *metrics.Counter
	restores              *metrics.Counter
	compactions           *metrics.Counter
	truncated             *metrics.Counter
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
}

func newShared(cfg Config) *shared {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &shared{
		cfg:                   cfg,
		part:                  partition.NewHashPartitioner(cfg.Partitions),
		pipeline:              delivery.NewPipeline(cfg.Delivery),
		table:                 placement.NewTable("", 0),
		reg:                   reg,
		e2eLatency:            reg.Histogram("cluster.e2e_latency"),
		detectLatency:         reg.Histogram("cluster.detect_latency_wall"),
		cutPause:              reg.Histogram("cluster.checkpoint_cut_pause"),
		applyBatches:          reg.Counter("cluster.apply_batches"),
		ingested:              reg.Counter("cluster.events"),
		delivered:             reg.Counter("cluster.delivered"),
		checkpoints:           reg.Counter("cluster.checkpoints"),
		ckptErrors:            reg.Counter("cluster.checkpoint_errors"),
		restores:              reg.Counter("cluster.restores"),
		compactions:           reg.Counter("cluster.compactions"),
		truncated:             reg.Counter("cluster.log_truncated_events"),
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
	if cfg.CheckpointDir != "" {
		s.audit = cfg.Audit
		s.ckptEveryMS = cfg.CheckpointInterval.Milliseconds()
		s.compactEvery = cfg.CompactEvery
		if s.compactEvery <= 0 {
			s.compactEvery = 8
		}
		s.mirrorBases = cfg.MirrorBases
	}
	return s
}

// adoptLog records the identity of the firehose log this process's offsets
// index (on a worker the hub's, so both sides agree on the shared placement
// table and audit records) and loads the durable placement assignment,
// gated by that identity like every other durable artifact: a foreign table
// loads empty, a malformed one is counted and replaced at the next mutation.
func (s *shared) adoptLog(id uint64) {
	s.runID = id
	if s.cfg.CheckpointDir == "" {
		return
	}
	tbl, err := placement.Load(placement.TablePath(s.cfg.CheckpointDir), id)
	if err != nil {
		s.ckptErrors.Inc()
	}
	s.table = tbl
}

// placements returns partition pid's placements by replica index: the
// configured count, widened by the persisted table (live scale-out survives
// restarts), decommissioned indices marked (tombstones keep indices stable).
func (s *shared) placements(pid int) []placement.Placement {
	out := make([]placement.Placement, max(s.cfg.Replicas, s.table.Replicas(pid)))
	for r := range out {
		out[r] = s.table.Get(pid, r)
	}
	return out
}

// Cluster is a running deployment: in one process both tiers, else one.
type Cluster struct {
	*shared
	// hub owns the firehose log; nil on a worker (Config.Join), whose host
	// reaches another process's over TCP.
	hub *hubTier
	// host runs this process's replicas: none on a listening hub
	// (Config.Listen), where workers animate every slot.
	host *replicaHost

	startOnce sync.Once
	stopOnce  sync.Once
}

// New validates cfg and builds the tiers Listen/Join select: the hub tier
// unless this process joins another's, then a replica host over a link to
// it — owning every placement, or a worker's OwnedReplicas, or on a
// listening hub none. The cluster is idle until Start. With recovery,
// construction is also the recovery path, and New + Start over the
// directories of a shut-down cluster is the whole-cluster restart: the log's
// identity gates the checkpoints, every owned replica is restored
// (restoreSlot), Start replays the log from each restore point, and the
// delivery tier's exactly-once filter and suppression state (dedup LRU +
// fatigue budgets) are seeded from delivery.state. cfg must then describe
// the same deployment the directories were written by. After a clean
// Shutdown the restarted cluster delivers exactly the notification set an
// uninterrupted run would have; after a hard crash nothing is lost — no cut
// covers an offset the delivery tier had not decided — and what is pushed
// again is at most the un-fsynced log tail (the WAL's 256-record fsync
// batch) and each replica's span above its last cut, the paper's
// product-level dedup tolerance. Fresh directories degenerate to a normal
// cold start.
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
	if cfg.Join == "" && cfg.CheckpointDir != "" && cfg.LogDir == "" {
		// The process holding the log keeps it on disk whenever it
		// checkpoints: checkpoint offsets index it, so it must outlive the
		// process as the checkpoints do. (A worker's log is the hub's.)
		cfg.LogDir = filepath.Join(cfg.CheckpointDir, "firehose")
	}
	if err := validateNetworked(cfg); err != nil {
		return nil, err
	}
	if cfg.LogDir != "" && cfg.CheckpointDir == "" {
		// The restart path leans on the delivery high-water offsets and
		// replica chains stored under CheckpointDir; a durable log alone
		// would replay the world and re-push the previous run's tail.
		return nil, fmt.Errorf("cluster: LogDir requires CheckpointDir")
	}
	if cfg.CheckpointDir != "" {
		if cfg.CheckpointInterval <= 0 {
			cfg.CheckpointInterval = time.Minute
		}
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
		}
	}
	c = &Cluster{shared: newShared(cfg)}
	var link hubLink
	var owned [][2]int
	if cfg.Join != "" {
		if link, err = dialHub(c.shared); err != nil {
			return nil, fmt.Errorf("cluster: join %s: %w", cfg.Join, err)
		}
		owned = cfg.OwnedReplicas
	} else {
		if c.hub, err = newHubTier(c.shared); err != nil {
			return nil, err
		}
		link = c.hub
		if cfg.Listen == "" {
			owned = c.hub.present
		}
	}
	if c.host, err = newReplicaHost(c.shared, link, owned); err != nil {
		link.close()
		return nil, err
	}
	return c, nil
}

// edgeMarshaler and unmarshalEdge are the WAL's record codec for firehose
// events: graph.AppendEdge's encoding, no framing (the WAL frames and
// checksums). The marshaler encodes into one buffer of its own, which the
// WAL's Marshal contract allows (it runs under the WAL's lock and its result
// is used only until Append returns), so a record costs no allocation; one
// marshaler serves one WAL.
func edgeMarshaler() func(graph.Edge) ([]byte, error) {
	var b []byte
	return func(e graph.Edge) ([]byte, error) {
		b = graph.AppendEdge(b[:0], e)
		return b, nil
	}
}

func unmarshalEdge(b []byte) (graph.Edge, error) {
	c := codecutil.NewCursor(b, "cluster: edge record")
	e := graph.ReadEdge(c, "edge")
	return e, c.Done()
}

// Start launches one consumer goroutine per hosted replica
// (replicaHost.start). Calls after the first are no-ops.
func (c *Cluster) Start() { c.startOnce.Do(c.host.start) }

// Publish feeds one edge into the firehose. It blocks when consumers lag
// (backpressure), fails after Stop, and is ErrNotLocal on a worker.
func (c *Cluster) Publish(e graph.Edge) error {
	h, err := c.hubTier()
	if err != nil {
		return err
	}
	if err := h.firehose.Publish(e, 0); err != nil {
		return err
	}
	c.ingested.Inc()
	return nil
}

// Stop closes the firehose, waits for partitions to drain — a replica
// mid-catch-up finishes its replay first — then stops the checkpoint
// writers (pending cuts land on disk), closes the candidate queue, and
// waits for delivery. Safe to call multiple times; must not be called
// concurrently with RestoreReplica. Only the first call returns an error: a
// listening hub's slots that owed a FIN past NetDrainTimeout, or what a
// worker's Wait reports.
func (c *Cluster) Stop() error { return c.stop(false) }

// Shutdown is the graceful durable stop: Stop plus one final checkpoint
// cut per alive replica this process runs, at the drained head — so a
// restart over the same directories composes straight to the end of the
// log instead of replaying the whole last checkpoint interval — and a hard
// fsync barrier on the durable log before it closes. Without CheckpointDir
// there is nothing to cut and it behaves exactly like Stop.
func (c *Cluster) Shutdown() error { return c.stop(true) }

// stop runs the host's stop once; only that call returns its error.
func (c *Cluster) stop(finalCut bool) (err error) {
	c.stopOnce.Do(func() { err = c.host.stop(finalCut) })
	return err
}

// hubTier returns the hub tier, which only the process holding the log has:
// ingest, reads, failure flags and slot states are hub business.
func (c *Cluster) hubTier() (*hubTier, error) {
	if c.hub == nil {
		return nil, ErrNotLocal
	}
	return c.hub, nil
}

// Pipeline returns the delivery pipeline (for funnel stats).
func (c *Cluster) Pipeline() *delivery.Pipeline { return c.pipeline }

// Metrics returns the cluster's registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// Partitioner returns the cluster's A-space partitioner.
func (c *Cluster) Partitioner() partition.Partitioner { return c.part }

// slot validates indices and returns the hub tier's record of the slot.
func (c *Cluster) slot(pid, r int) (*replicaSlot, error) {
	h, err := c.hubTier()
	if err != nil {
		return nil, err
	}
	return h.slot(pid, r)
}

// Replica returns the given replica, for tests and failure injection.
// Decommissioned slots have no partition and return an error, as do slots
// a worker process runs.
func (c *Cluster) Replica(pid, r int) (*partition.Partition, error) {
	if _, err := c.slot(pid, r); err != nil {
		return nil, err
	}
	rep := c.host.replica(pid, r)
	if rep == nil {
		return nil, fmt.Errorf("cluster: replica %d/%d is decommissioned, or runs in a worker process", pid, r)
	}
	return rep.p, nil
}

// FailReplica takes a replica out of read service — experiment E9's
// failover scenario. The replica keeps its state and keeps consuming
// (transient unreachability), so candidate delivery continues seamlessly
// from the surviving copies; use KillReplica for real state loss. The flag
// holds until RecoverReplica or the slot's next go-live.
func (c *Cluster) FailReplica(pid, r int) error {
	slot, err := c.slot(pid, r)
	if err != nil {
		return err
	}
	slot.failed.Store(true)
	return nil
}

// RecoverReplica returns a flag-failed live replica to read service.
// Replicas killed with KillReplica must rejoin through RestoreReplica
// instead: their state is gone, so serving reads would be a lie.
func (c *Cluster) RecoverReplica(pid, r int) error {
	slot, err := c.slot(pid, r)
	if err != nil {
		return err
	}
	if slot.state.Load() != replicaLive {
		return fmt.Errorf("cluster: replica %d/%d is not merely flagged down; use RestoreReplica", pid, r)
	}
	slot.failed.Store(false)
	return nil
}

// Stats summarizes a running cluster: what the paper's API reports (events,
// pushes, latency, the funnel), the firehose log's position, and the two
// apply-loop figures the benchmark (benchmark/run.go) reads. Every other
// count is read by its cluster.* name from Metrics(), the one place
// counters are kept.
type Stats struct {
	Events    uint64
	Delivered uint64
	// LogTruncatedBelow is the firehose log's compaction horizon: every
	// retained offset is at or above it. Zero until the first truncation.
	LogTruncatedBelow uint64
	// ApplyBatches counts batches applied by the replica apply loops (one
	// per envelope with ApplyBatch <= 1); the engines' engine.events over
	// it is the mean envelopes per batch.
	ApplyBatches uint64
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
	_, _, start := c.host.link.LogMeta()
	return Stats{
		Events:            c.ingested.Value(),
		Delivered:         c.delivered.Value(),
		LogTruncatedBelow: start,
		ApplyBatches:      c.applyBatches.Value(),
		CutPause:          c.cutPause.Snapshot(),
		E2ELatency:        c.e2eLatency.Snapshot(),
		DetectLatency:     c.detectLatency.Snapshot(),
		Funnel:            c.pipeline.Stats(),
	}
}

// RecommendationsFor serves a user read through the broker. Workers have
// no broker — the hub fans reads out to them over their slots' feed
// connections.
func (c *Cluster) RecommendationsFor(a graph.VertexID) ([]motif.Candidate, error) {
	h, err := c.hubTier()
	if err != nil {
		return nil, err
	}
	return h.broker.RecommendationsFor(a)
}

// TopItems fans the "most recommended items" query out to one healthy
// replica of every partition and gathers the merged global top-n — the
// paper's broker fan-out/gather read path.
func (c *Cluster) TopItems(n int) ([]partition.ItemCount, error) {
	h, err := c.hubTier()
	if err != nil {
		return nil, err
	}
	lists, err := broker.FanOut(h.broker, func(r broker.Replica) []partition.ItemCount {
		return r.TopItems(n)
	})
	if err != nil {
		return nil, err
	}
	return partition.MergeItemCounts(lists, n), nil
}
