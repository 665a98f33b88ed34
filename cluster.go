package motifstream

import (
	"fmt"
	"time"

	"motifstream/internal/audit"
	"motifstream/internal/cluster"
	"motifstream/internal/delivery"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/placement"
)

// ClusterOptions configures the full partitioned deployment. Zero values
// select production-shaped defaults.
type ClusterOptions struct {
	// Partitions is the number of hash partitions over users (paper: 20).
	// Zero selects 20.
	Partitions int
	// Replicas per partition (fault tolerance + read throughput). Zero
	// selects 1.
	Replicas int
	// K, Window, EdgeTypes, MaxInfluencers mirror Options. D keeps
	// stream edges for the longest window of the primary diamond and the
	// registered motifs.
	K              int
	Window         time.Duration
	EdgeTypes      []EdgeType
	MaxInfluencers int
	// MaxFanout caps the recent actors considered per event, bounding
	// work on viral items. Zero selects 256; negative means unlimited, up
	// to the 1024 newest in-edges D keeps per item (its celebrity cap).
	MaxFanout int
	// motifs holds the plans RegisterMotifs compiled, run after the
	// primary diamond.
	motifs []Program
	// QueueDelayMedian and QueueDelayP99 shape the simulated end-to-end
	// message-queue propagation delay (the paper's dominant latency:
	// median 7s, p99 15s). A zero median disables delay modeling; otherwise
	// P99 must exceed the median (NewCluster fails if not, or if either is
	// negative). The total is split evenly between the ingest hop and the
	// delivery hop.
	QueueDelayMedian, QueueDelayP99 time.Duration
	// MaxPushesPerUserPerDay is the fatigue budget (0 selects 4).
	MaxPushesPerUserPerDay int
	// DedupTTL suppresses repeat (user,item) pushes (0 selects 24h).
	DedupTTL time.Duration
	// DisableSleepHours turns off waking-hours suppression (useful in
	// latency-focused experiments).
	DisableSleepHours bool
	// OnNotify receives each delivered push. The notification is the
	// callback's to read for as long as it likes, but its Candidate.Via is a
	// window of an array shared with other candidates (see Candidate.Via):
	// never write through it, and copy it (slices.Clone) to keep it past the
	// callback — holding the window keeps the whole array reachable.
	OnNotify func(Notification)
	// Seed makes delay sampling reproducible.
	Seed int64
	// CheckpointDir, when non-empty, enables the recovery subsystem:
	// replicas write periodic durable checkpoints here, the firehose
	// retains its log on disk (LogDir) for offset replay, KillReplica and
	// RestoreReplica become available for crash/recovery testing and
	// operations, and the deployment survives Shutdown and ReopenCluster.
	CheckpointDir string
	// CheckpointInterval is the stream-time interval between per-replica
	// checkpoints; zero selects one minute. Ignored without CheckpointDir.
	CheckpointInterval time.Duration
	// CheckpointCompactEvery is how many incremental delta segments a
	// replica's checkpoint chain accumulates before the background
	// compactor folds it into a fresh base; zero selects 8. Compaction
	// bounds restore time and advances the firehose log's truncation
	// horizon. Ignored without CheckpointDir.
	CheckpointCompactEvery int
	// LogDir is where the firehose log is stored as a durable segmented
	// WAL, making whole-cluster restarts recoverable: NewCluster (or
	// ReopenCluster) over an existing CheckpointDir and LogDir restores
	// every replica from its checkpoint chain and replays the durable log
	// from its floor offset. Empty selects <CheckpointDir>/firehose. The log
	// fsyncs every 256 records, the bound on the torn tail an OS crash can
	// lose. Requires CheckpointDir; forbidden with Join. See
	// docs/DURABILITY.md for the durable-log contract.
	LogDir string
	// MirrorBases is the base replication factor: every compacted base
	// checkpoint is mirrored (CRC-verified) to up to this many peer
	// replica directories of the same partition. Mirrors make a corrupt
	// base above a truncated firehose log recoverable and feed the
	// re-provisioning path (see docs/OPERATIONS.md). Zero disables.
	// Ignored without CheckpointDir.
	MirrorBases int
	// HealAfter enables the placement auto-healer: a replica that stays
	// dead longer than this is automatically re-provisioned onto a fresh
	// node (ReprovisionReplica), and counted in the cluster.healed counter.
	// Zero disables. Requires CheckpointDir: NewCluster fails without it.
	HealAfter time.Duration
	// ApplyBatch bounds how many envelopes each replica drains from its
	// firehose subscription into one batch, amortizing scratch and metric
	// updates; candidates are published and checkpoints cut through an
	// ordered-commit stage whose results do not depend on the bound (see
	// docs/DURABILITY.md, "Ordering invariants of the apply loop"). Zero
	// or one applies one envelope at a time.
	ApplyBatch int
	// ApplyWorkers fans candidate generation for a batch across this many
	// goroutines, sharded by target vertex. Zero or one — or a batch of
	// one — keeps detection on the consumer goroutine.
	ApplyWorkers int
	// Listen, when non-empty, runs this deployment as a networked hub: it
	// binds a TCP listener on the address (":0" picks a free port; see
	// ListenAddr), owns the durable firehose log and the delivery tier,
	// and serves every replica slot to out-of-process workers — no replica
	// runs in the hub process. Requires CheckpointDir. Mutually exclusive
	// with Join. See docs/OPERATIONS.md, "Multi-process deployment".
	Listen string
	// Join, when non-empty, runs this deployment as a networked worker: it
	// dials the hub at the address, subscribes to the firehose over TCP
	// for the slots in OwnedReplicas, and ships detected candidates back.
	// Requires CheckpointDir and OwnedReplicas; forbids LogDir (the log
	// lives in the hub process). Use Wait to block until the hub ends the
	// stream.
	Join string
	// OwnedReplicas lists the (partition, replica) slots a worker process
	// owns. Required with Join, forbidden otherwise.
	OwnedReplicas [][2]int
	// Audit enables the detection-state fingerprint audit: every
	// checkpoint cut records a CRC32C fingerprint of the replica's full
	// recoverable state, recovery compositions are cross-checked against
	// the records, scale-out go-live is gated on a fingerprint match, and
	// VerifyFingerprints cross-checks all replicas of a partition. See
	// docs/DURABILITY.md, "State determinism & fingerprint audit".
	// Requires CheckpointDir: NewCluster fails without it.
	Audit bool
}

// RegisterMotifs validates src — one or more motif declarations in the
// DSL of docs/QUERIES.md — and adds it to the standing-query set every
// replica runs alongside the primary diamond. Call any number of times
// before NewCluster; an invalid source is rejected without modifying the
// set. Motifs whose plans share a probe prefix (same trigger types,
// windows, and fanout) are executed once per event through the engine's
// shared trie, so large standing-query sets cost far less than N
// independent scans.
func (o *ClusterOptions) RegisterMotifs(src string) error {
	return registerMotifs(&o.motifs, src)
}

// Cluster is the running multi-partition deployment.
type Cluster struct {
	inner  *cluster.Cluster
	healer *placement.Healer
}

// NewCluster builds and starts the deployment with the given static follow
// edges.
func NewCluster(staticEdges []Edge, opts ClusterOptions) (*Cluster, error) {
	if opts.HealAfter > 0 && (opts.Listen != "" || opts.Join != "") {
		// The healer drives ReprovisionReplica, which is a local-lifecycle
		// operation (ErrNotLocal over the network tier).
		return nil, fmt.Errorf("motifstream: HealAfter is not supported in networked mode")
	}
	if opts.CheckpointDir == "" && (opts.Audit || opts.HealAfter > 0) {
		return nil, fmt.Errorf("motifstream: Audit and HealAfter require CheckpointDir")
	}
	if opts.Partitions == 0 {
		opts.Partitions = 20
	}
	primary, err := primaryDiamond(opts.K, opts.Window, opts.EdgeTypes, opts.MaxFanout)
	if err != nil {
		return nil, err
	}
	// Plans are immutable and safe for concurrent OnEdge calls, so every
	// replica runs the same programs.
	programs := append([]motif.Program{primary}, opts.motifs...)

	med, p99 := opts.QueueDelayMedian, opts.QueueDelayP99
	if med < 0 || p99 < 0 || (med > 0 && p99 <= med) {
		return nil, fmt.Errorf("motifstream: queue delay median %v, p99 %v: want a zero median (off) or 0 < median < p99", med, p99)
	}
	var hopDelay cluster.DelayModel
	if med > 0 {
		// Two lognormal hops whose sum approximates the configured
		// end-to-end quantiles: halve the median per hop; sums of two
		// iid lognormals keep roughly the same tail ratio.
		hopDelay = cluster.LognormalFromQuantiles(med/2, p99/2)
	}

	dopts := delivery.Options{
		DedupTTL:         opts.DedupTTL,
		MaxPerUserPerDay: opts.MaxPushesPerUserPerDay,
	}
	if opts.DisableSleepHours {
		dopts.SleepStartHour = delivery.SleepDisabled
		dopts.SleepEndHour = delivery.SleepDisabled
	}

	inner, err := cluster.New(cluster.Config{
		Partitions:         opts.Partitions,
		Replicas:           opts.Replicas,
		StaticEdges:        staticEdges,
		MaxInfluencers:     opts.MaxInfluencers,
		Dynamic:            dynamicOptions(programs),
		NewPrograms:        func() []motif.Program { return programs },
		HopDelay:           hopDelay,
		Delivery:           dopts,
		Seed:               opts.Seed,
		OnNotify:           opts.OnNotify,
		CheckpointDir:      opts.CheckpointDir,
		CheckpointInterval: opts.CheckpointInterval,
		CompactEvery:       opts.CheckpointCompactEvery,
		LogDir:             opts.LogDir,
		MirrorBases:        opts.MirrorBases,
		ApplyBatch:         opts.ApplyBatch,
		ApplyWorkers:       opts.ApplyWorkers,
		Audit:              opts.Audit,
		Listen:             opts.Listen,
		Join:               opts.Join,
		OwnedReplicas:      opts.OwnedReplicas,
	})
	if err != nil {
		return nil, err
	}
	inner.Start()
	c := &Cluster{inner: inner}
	if opts.HealAfter > 0 {
		healed := inner.Metrics().Counter("cluster.healed")
		c.healer = placement.NewHealer(inner, placement.HealerOptions{
			After: opts.HealAfter,
			OnHeal: func(_, _ int, err error) {
				if err == nil {
					healed.Inc()
				}
			},
		})
		c.healer.Start()
	}
	return c, nil
}

// ReopenCluster restarts a previously shut-down durable deployment: a
// brand-new cluster over the same CheckpointDir (and LogDir, if one was
// set) restores every replica from its durable checkpoint chain and
// replays the on-disk firehose log until caught up. After a clean Shutdown
// the reopened cluster delivers exactly the notification set an
// uninterrupted run would have. staticEdges and opts must describe the
// same deployment the directories were written by.
func ReopenCluster(staticEdges []Edge, opts ClusterOptions) (*Cluster, error) {
	if opts.CheckpointDir == "" {
		return nil, fmt.Errorf("motifstream: ReopenCluster requires ClusterOptions.CheckpointDir")
	}
	return NewCluster(staticEdges, opts)
}

// Publish feeds one edge into the cluster firehose. Blocks on backpressure.
func (c *Cluster) Publish(e Edge) error { return c.inner.Publish(e) }

// Stop drains and shuts down the cluster (the auto-healer first, so no
// re-provision can race the teardown). Safe to call multiple times; only
// the first call returns an error: on a networked hub, the slots whose
// workers never finished within 30 seconds, on a worker what Wait reports.
func (c *Cluster) Stop() error {
	c.stopHealer()
	return c.inner.Stop()
}

// Shutdown gracefully stops a checkpointing cluster: everything drained, a
// final checkpoint cut per replica, and the on-disk log fsynced — the
// state a later ReopenCluster resumes from losslessly. Equivalent to Stop
// on clusters without CheckpointDir, and returns the same errors.
func (c *Cluster) Shutdown() error {
	c.stopHealer()
	return c.inner.Shutdown()
}

func (c *Cluster) stopHealer() {
	if c.healer != nil {
		c.healer.Stop()
	}
}

// ListenAddr returns a networked hub's bound listen address — needed to
// hand workers a dialable -join target when Listen was ":0". Empty on
// non-hub deployments.
func (c *Cluster) ListenAddr() string { return c.inner.ListenAddr() }

// Wait blocks until the hub ends the stream, then runs the worker's full
// durable stop (final checkpoint cuts gated on candidate acks, then the FIN
// naming the slots it finished). This is a networked worker process's main
// loop — construct, Wait, exit — and its error is what ended the worker
// abnormally: a hello the hub rejected, a hub unreachable for a whole outage
// budget, a FIN exchange that failed. Errors on non-worker deployments.
func (c *Cluster) Wait() error { return c.inner.Wait() }

// Abort tears a networked worker down as a crash would: connections
// drop, consumers stop, no final checkpoint cut. No-op on non-workers.
func (c *Cluster) Abort() { c.inner.Abort() }

// RecommendationsFor reads the most recent recommendations for a user
// through the broker tier.
func (c *Cluster) RecommendationsFor(a VertexID) ([]Candidate, error) {
	return c.inner.RecommendationsFor(a)
}

// ClusterStats is what the paper's API reports of a deployment: events,
// pushes, latency quantiles and the delivery funnel, plus the firehose log's
// truncation position. Every other count is read by name from Metrics():
// cluster.checkpoints, cluster.checkpoint_errors, cluster.restores,
// cluster.compactions, cluster.reprovisions (cluster.healed is the
// auto-healer's share), cluster.base_mirrors, cluster.base_pool_restores,
// cluster.fsyncs_saved, cluster.delivery_state_cuts,
// cluster.delivery_state_restores, cluster.scale_outs, cluster.scale_ins,
// cluster.audit_records and cluster.audit_mismatches among them, and the
// checkpoint cuts' apply-loop pauses in the cluster.checkpoint_cut_pause
// histogram.
type ClusterStats struct {
	// Events is the number of stream edges ingested.
	Events uint64
	// Delivered is the number of push notifications sent.
	Delivered uint64
	// LatencyP50 and LatencyP99 are end-to-end (edge creation → push)
	// latency quantiles including simulated queue propagation.
	LatencyP50, LatencyP99 time.Duration
	// DetectLatencyP50 and DetectLatencyP99 are wall-clock quantiles from
	// an event's publish to its candidates reaching the delivery tier —
	// the process's real queueing and scheduling, with no simulated delay.
	// Replayed (recovery) events are excluded.
	DetectLatencyP50, DetectLatencyP99 time.Duration
	// Funnel breaks down candidate drops by pipeline stage.
	Funnel FunnelStats
	// LogTruncatedBelow is the firehose log's compaction horizon: every
	// retained offset is at or above it. Zero until the first truncation.
	LogTruncatedBelow uint64
}

// Stats returns current cluster totals.
func (c *Cluster) Stats() ClusterStats {
	s := c.inner.Stats()
	return ClusterStats{
		Events:            s.Events,
		Delivered:         s.Delivered,
		LatencyP50:        s.E2ELatency.P50,
		LatencyP99:        s.E2ELatency.P99,
		DetectLatencyP50:  s.DetectLatency.P50,
		DetectLatencyP99:  s.DetectLatency.P99,
		Funnel:            s.Funnel,
		LogTruncatedBelow: s.LogTruncatedBelow,
	}
}

// Metrics exposes the cluster's metrics registry, the one place its
// counters are kept; Dump renders them all.
func (c *Cluster) Metrics() *metrics.Registry { return c.inner.Metrics() }

// ItemCount pairs a recommended item with its recommendation count.
type ItemCount = partition.ItemCount

// TopItems returns the n globally most-recommended items, gathered by
// fanning the query out to every partition through the broker tier.
func (c *Cluster) TopItems(n int) ([]ItemCount, error) {
	return c.inner.TopItems(n)
}

// FailReplica injects a transient replica failure: reads route around it
// while it keeps consuming, so delivery continues from the surviving
// copies. Use KillReplica for real crash semantics.
func (c *Cluster) FailReplica(partition, replica int) error {
	return c.inner.FailReplica(partition, replica)
}

// RecoverReplica restores a replica failed with FailReplica.
func (c *Cluster) RecoverReplica(partition, replica int) error {
	return c.inner.RecoverReplica(partition, replica)
}

// KillReplica crashes a replica for real: it stops consuming and drops
// all of its state. Requires ClusterOptions.CheckpointDir.
func (c *Cluster) KillReplica(partition, replica int) error {
	return c.inner.KillReplica(partition, replica)
}

// RestoreReplica rejoins a killed replica: it reloads the newest durable
// checkpoint and replays the firehose from the checkpoint's offset until
// caught up, at which point it serves reads again.
func (c *Cluster) RestoreReplica(partition, replica int) error {
	return c.inner.RestoreReplica(partition, replica)
}

// ReprovisionReplica replaces a replica's node — the elastic placement
// path for machines that die and are replaced rather than resurrected:
// the old slot's state and directory are discarded entirely, and a fresh
// replica (fresh S, new generation directory) is rebuilt from the
// partition's replicated base pool plus log replay, catching up through
// the standard replaying→live machine. Requires CheckpointDir.
func (c *Cluster) ReprovisionReplica(partition, replica int) error {
	return c.inner.ReprovisionReplica(partition, replica)
}

// AddReplica grows a partition by one replica while the stream is flowing
// (live scale-out); the newcomer catches up from the partition's base
// pool plus log replay and then serves reads. Returns the new replica's
// index. Requires CheckpointDir.
func (c *Cluster) AddReplica(partition int) (int, error) {
	return c.inner.AddReplica(partition)
}

// DecommissionReplica removes a replica permanently (live scale-in); its
// index becomes a stable tombstone and is never reused. The last alive
// replica of a partition cannot be removed. Requires CheckpointDir.
func (c *Cluster) DecommissionReplica(partition, replica int) error {
	return c.inner.DecommissionReplica(partition, replica)
}

// ReplicaCount reports a partition's current replica count, including
// decommissioned tombstones (indices are stable).
func (c *Cluster) ReplicaCount(partition int) int {
	return c.inner.Replicas(partition)
}

// ReplicaState reports "live", "replaying", "dead", or "removed" for a
// replica.
func (c *Cluster) ReplicaState(partition, replica int) (string, error) {
	return c.inner.ReplicaState(partition, replica)
}

// AwaitReplicaLive blocks until the replica finishes catch-up, up to
// timeout.
func (c *Cluster) AwaitReplicaLive(partition, replica int, timeout time.Duration) error {
	return c.inner.AwaitReplicaLive(partition, replica, timeout)
}

// AuditReport is the result of a cross-replica fingerprint verification:
// totals plus every offset at which recorded fingerprints disagreed.
type AuditReport = audit.Report

// AuditMismatch is one offset at which recorded fingerprints disagree.
type AuditMismatch = audit.Mismatch

// VerifyFingerprints cross-checks every state fingerprint recorded by the
// partition's replicas: at every offset two or more sources recorded, the
// fingerprints must agree (detection is deterministic, so replicas that
// applied the same firehose prefix hold bit-identical recoverable state).
// An empty Mismatches list with a nonzero Compared count is the
// bit-equality certificate for the audited offsets. Requires
// ClusterOptions.Audit.
func (c *Cluster) VerifyFingerprints(partition int) (AuditReport, error) {
	return c.inner.VerifyFingerprints(partition)
}
