// Package offline models the batch side of the paper's design: "currently
// the A→B edges are computed offline and loaded into the system
// periodically: this allows us to take advantage of rich features to prune
// the graph" (§2). The pipeline scores each follow edge from interaction
// features, caps over-long follow lists to their best-scored edges, and
// builds the pruned edge set the facade's System.PeriodicStaticReload loads
// on a timer.
package offline

import (
	"fmt"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/statstore"
)

// Interaction is one engagement signal between a follower and a
// following: A retweeted/favorited/replied-to B at some time. The offline
// pipeline aggregates these into per-edge features.
type Interaction struct {
	A, B graph.VertexID
	TS   int64 // Unix ms
}

// EdgeFeatures aggregates the signals available for one A→B follow edge.
type EdgeFeatures struct {
	// FollowAgeMS is how long ago A followed B, relative to the build
	// time (non-negative).
	FollowAgeMS int64
	// Interactions counts A's engagements with B's content.
	Interactions int
	// LastInteractionMS is the age of the most recent engagement; 0 when
	// Interactions is 0.
	LastInteractionMS int64
	// Reciprocal reports whether B also follows A.
	Reciprocal bool
}

// DefaultScorer ranks an edge from its features, higher keeping the edge
// longer under the influencer cap. It blends engagement volume, engagement
// recency, follow recency, and reciprocity — the "rich features" of the
// paper, in miniature. The weights are ad hoc but monotone in the obvious
// directions, which is all the pruning experiment needs.
func DefaultScorer(f EdgeFeatures) float64 {
	score := float64(f.Interactions)
	if f.Interactions > 0 {
		// Engagement in the last week is worth more than stale history.
		weekMS := float64(7 * 24 * time.Hour / time.Millisecond)
		score += 5 * decay(float64(f.LastInteractionMS), weekMS)
	}
	// Fresh follows carry intent even with no engagement yet.
	monthMS := float64(30 * 24 * time.Hour / time.Millisecond)
	score += 2 * decay(float64(f.FollowAgeMS), monthMS)
	if f.Reciprocal {
		score += 3
	}
	return score
}

// decay maps age to (0,1], halving every halfLife.
func decay(ageMS, halfLifeMS float64) float64 {
	if ageMS <= 0 {
		return 1
	}
	return 1 / (1 + ageMS/halfLifeMS)
}

// Config assembles a Pipeline.
type Config struct {
	// MaxInfluencers caps each A's follow list after scoring (the
	// paper's influencer cap). Zero keeps everything.
	MaxInfluencers int
}

// Pipeline scores and prunes follow edges into S snapshots.
type Pipeline struct {
	cfg Config
}

// NewPipeline returns a Pipeline.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg}
}

// BuildStats reports what one build did.
type BuildStats struct {
	InputEdges   int
	CappedOut    int // dropped by the influencer cap
	OutputEdges  int
	BuildElapsed time.Duration
}

// String renders the stats for logs.
func (s BuildStats) String() string {
	return fmt.Sprintf("offline build: %d in, %d over cap, %d out (%v)",
		s.InputEdges, s.CappedOut, s.OutputEdges, s.BuildElapsed)
}

// Build scores every follow edge at the given build time and returns the
// snapshot, each follow list capped to its best-scored MaxInfluencers.
func (p *Pipeline) Build(follows []graph.Edge, interactions []Interaction, nowMS int64) (*statstore.Snapshot, BuildStats) {
	start := time.Now()
	stats := BuildStats{InputEdges: len(follows)}

	// Aggregate interaction features per (A,B).
	type pair struct{ a, b graph.VertexID }
	counts := make(map[pair]int)
	latest := make(map[pair]int64)
	for _, it := range interactions {
		k := pair{it.A, it.B}
		counts[k]++
		if it.TS > latest[k] {
			latest[k] = it.TS
		}
	}
	followSet := make(map[pair]bool, len(follows))
	for _, e := range follows {
		followSet[pair{e.Src, e.Dst}] = true
	}

	score := func(e graph.Edge) float64 {
		k := pair{e.Src, e.Dst}
		f := EdgeFeatures{
			FollowAgeMS:  max(0, nowMS-e.TS),
			Interactions: counts[k],
			Reciprocal:   followSet[pair{e.Dst, e.Src}],
		}
		if f.Interactions > 0 {
			f.LastInteractionMS = max(0, nowMS-latest[k])
		}
		return DefaultScorer(f)
	}

	builder := &statstore.Builder{
		MaxInfluencers: p.cfg.MaxInfluencers,
		Score:          score,
	}
	snap := builder.Build(follows)
	stats.OutputEdges = int(snap.NumEdges())
	stats.CappedOut = len(follows) - stats.OutputEdges
	stats.BuildElapsed = time.Since(start)
	return snap, stats
}
