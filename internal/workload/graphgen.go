// Package workload generates the synthetic inputs that substitute for
// Twitter's production data: a follow graph with the heavy-tailed
// in-degree distribution of the real one (Myers et al., WWW 2014 — paper
// ref [7]) and a temporally-correlated dynamic edge stream whose bursts
// toward "hot" targets are what form diamond motifs.
package workload

import (
	"math/rand"

	"motifstream/internal/graph"
)

// GraphConfig parametrizes the static follow-graph generator.
type GraphConfig struct {
	// Users is the number of accounts (vertex IDs 0..Users-1).
	Users int
	// AvgFollows is the mean out-degree (followings per user).
	AvgFollows int
	// ZipfS is the Zipf exponent of target popularity; Twitter's follow
	// graph in-degree tail is well fit by s ≈ 1.35. Must be > 1.
	ZipfS float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultGraphConfig returns a laptop-scale configuration with realistic
// shape: 20k users, mean out-degree 30, Zipf 1.35.
func DefaultGraphConfig() GraphConfig {
	return GraphConfig{Users: 20_000, AvgFollows: 30, ZipfS: 1.35, Seed: 1}
}

// GenFollowGraph generates the static A→B follow edges. Each user follows
// a Poisson-ish number of targets around AvgFollows; targets are drawn
// Zipf-by-rank with a random rank permutation so popular accounts are
// spread across the ID space. Self-loops and duplicates are removed.
// Timestamps are zero: static edges predate the stream.
func GenFollowGraph(cfg GraphConfig) []graph.Edge {
	if cfg.Users <= 1 || cfg.AvgFollows <= 0 {
		return nil
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.35
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	z := rand.NewZipf(r, cfg.ZipfS, 1, uint64(cfg.Users-1))
	// Random rank→ID permutation so vertex ID order carries no popularity
	// signal.
	perm := r.Perm(cfg.Users)

	edges := make([]graph.Edge, 0, cfg.Users*cfg.AvgFollows)
	seen := make(map[graph.VertexID]bool, cfg.AvgFollows*2)
	for a := 0; a < cfg.Users; a++ {
		// Degree jitter in [AvgFollows/2, AvgFollows*3/2].
		deg := cfg.AvgFollows/2 + r.Intn(cfg.AvgFollows+1)
		clear(seen)
		for tries := 0; len(seen) < deg && tries < deg*4; tries++ {
			b := graph.VertexID(perm[z.Uint64()])
			if b == graph.VertexID(a) || seen[b] {
				continue
			}
			seen[b] = true
			edges = append(edges, graph.Edge{
				Src:  graph.VertexID(a),
				Dst:  b,
				Type: graph.Follow,
			})
		}
	}
	return edges
}
