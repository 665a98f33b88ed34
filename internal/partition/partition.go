// Package partition implements the paper's horizontal scaling scheme:
// hash-partitioning by the A's. "Each partition holds a disjoint set of
// source vertices for the S data structure... Such a design guarantees
// that all adjacency list intersections are local to each partition, which
// eliminates complex cross-partition operations" (§2). Every partition
// nonetheless ingests the entire dynamic stream into its own full copy of
// D.
package partition

import (
	"fmt"

	"motifstream/internal/core"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

// Partitioner assigns each A to exactly one partition.
type Partitioner interface {
	// PartitionOf returns the partition index owning a, in [0, N()).
	PartitionOf(a graph.VertexID) int
	// N returns the number of partitions.
	N() int
}

// HashPartitioner assigns A's by Fibonacci hash, giving a near-uniform
// spread even for sequential IDs.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner panics on n < 1.
func NewHashPartitioner(n int) HashPartitioner {
	if n < 1 {
		panic("partition: need at least one partition")
	}
	return HashPartitioner{n: n}
}

// PartitionOf implements Partitioner.
func (p HashPartitioner) PartitionOf(a graph.VertexID) int {
	h := uint64(a) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(p.n))
}

// N implements Partitioner.
func (p HashPartitioner) N() int { return p.n }

// Config assembles one Partition.
type Config struct {
	// ID is the partition index.
	ID int
	// StaticEdges are the global A→B follow edges; the builder keeps only
	// this partition's A's.
	StaticEdges []graph.Edge
	// Partitioner decides ownership. Required.
	Partitioner Partitioner
	// MaxInfluencers caps B's per A in S (0 = unlimited).
	MaxInfluencers int
	// StaticSnapshot, when non-nil, is served as S and the already-follows
	// index instead of building both from StaticEdges. It must equal that
	// build: a replica host builds it once per partition and hands it to
	// every replica of the partition it places, and benchmark/ builds it
	// itself to time the build alone. The partition never modifies it.
	StaticSnapshot *statstore.Snapshot
	// Dynamic configures this partition's D store.
	Dynamic dynstore.Options
	// Programs are the motif programs to run. Required.
	Programs []motif.Program
	// Metrics is the shared registry; nil creates a private one.
	Metrics *metrics.Registry
	// RecentPerUser is the per-user candidate log depth for serving read
	// queries; 0 selects 16.
	RecentPerUser int
}

// Partition is one shard of the system: a partition-filtered S, a full D,
// the detection engine, and a small per-user candidate log that serves the
// broker's read path.
type Partition struct {
	id     int
	part   Partitioner
	engine *core.Engine
	log    *candidateLog
	items  *itemCounter
}

// New builds a partition, including its S snapshot and already-follows
// index from the global static edge set unless Config.StaticSnapshot
// supplies them.
func New(cfg Config) (*Partition, error) {
	if cfg.Partitioner == nil {
		return nil, fmt.Errorf("partition: Partitioner is required")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Partitioner.N() {
		return nil, fmt.Errorf("partition: ID %d out of range [0,%d)", cfg.ID, cfg.Partitioner.N())
	}
	snap := cfg.StaticSnapshot
	if snap == nil {
		builder := &statstore.Builder{
			Keep:           func(a graph.VertexID) bool { return cfg.Partitioner.PartitionOf(a) == cfg.ID },
			MaxInfluencers: cfg.MaxInfluencers,
		}
		snap = builder.Build(cfg.StaticEdges)
	}
	static := statstore.New(snap)
	eng, err := core.NewEngine(core.Config{
		Static:   static,
		Dynamic:  dynstore.New(cfg.Dynamic),
		Programs: cfg.Programs,
		// Another partition's user is its owner's to recommend to.
		Follows: func(a, c graph.VertexID) bool {
			return cfg.Partitioner.PartitionOf(a) != cfg.ID || static.Snapshot().Follows(a, c)
		},
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	depth := cfg.RecentPerUser
	if depth <= 0 {
		depth = 16
	}
	return &Partition{
		id:     cfg.ID,
		part:   cfg.Partitioner,
		engine: eng,
		log:    newCandidateLog(depth),
		items:  newItemCounter(),
	}, nil
}

// ID returns the partition index.
func (p *Partition) ID() int { return p.id }

// Engine exposes the partition's detection engine.
func (p *Partition) Engine() *core.Engine { return p.engine }

// Apply ingests one dynamic edge and returns the candidates detected for
// this partition's A's. Candidates are also appended to the per-user log.
func (p *Partition) Apply(e graph.Edge) []motif.Candidate {
	cands := p.engine.Apply(e)
	p.Commit(cands)
	return cands
}

// DetectBatch runs detection for edges[i] into out[i] (len(out) must be
// len(edges)) WITHOUT committing candidates to the per-user log or the
// item counter, and without advancing the sweep clock. The cluster's
// parallel path fans DetectBatch calls across workers (disjoint edge
// targets per concurrent call — see motif.Program's locality contract) and
// then replays Commit/MaybeSweep in stream order, so the log's per-user
// order and the sweep cadence stay byte-identical to sequential apply.
func (p *Partition) DetectBatch(edges []graph.Edge, out [][]motif.Candidate) {
	p.engine.DetectBatch(edges, out)
}

// DetectLeased is DetectBatch that also stores out[i]'s lease in leases[i]
// (core.Engine.DetectLeased): the cluster's apply loop hands each lease on
// with its candidates, and whoever finishes with them releases it.
func (p *Partition) DetectLeased(edges []graph.Edge, out [][]motif.Candidate, leases []motif.Lease) {
	p.engine.DetectLeased(edges, out, leases)
}

// ReleaseScratch drops the engine's detection memory (core.Engine.ReleaseScratch):
// the apply loop's last act.
func (p *Partition) ReleaseScratch() { p.engine.ReleaseScratch() }

// Commit appends already-detected candidates to the per-user log and the
// item counter. Candidates must be presented in stream order; the log's
// per-user recency depends on it.
func (p *Partition) Commit(cands []motif.Candidate) {
	if len(cands) == 0 {
		return
	}
	p.log.addAll(cands)
	p.items.addAll(cands)
}

// SweepDue reports whether the engine would prune D at stream time nowMS.
func (p *Partition) SweepDue(nowMS int64) bool { return p.engine.SweepDue(nowMS) }

// MaybeSweep prunes the engine's D store if due at nowMS; the batched
// apply path calls it at exactly the stream positions where the
// sequential path would have swept.
func (p *Partition) MaybeSweep(nowMS int64) { p.engine.MaybeSweep(nowMS) }

// RecommendationsFor returns the most recent logged candidates for user a.
// Returns nil if a is not owned by this partition.
func (p *Partition) RecommendationsFor(a graph.VertexID) []motif.Candidate {
	if p.part.PartitionOf(a) != p.id {
		return nil
	}
	return p.log.get(a)
}
