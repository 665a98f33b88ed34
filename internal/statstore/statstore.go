// Package statstore implements the paper's S data structure: the inverted
// static adjacency list. For each B, S stores the sorted list of A's that
// follow B, restricted to the A's owned by the local partition. S is
// immutable once built. The production system recomputes it offline and
// reloads it periodically (paper §2); the single-node System models that
// with Store.Reload's atomic snapshot swap. A cluster replica never swaps:
// every replica of a group serves the S it was built with from
// configuration, so replicas stay a pure function of the stream prefix.
package statstore

import (
	"sort"
	"sync/atomic"

	"motifstream/internal/graph"
)

// Store holds the current S snapshot and supports lock-free reads with
// atomic replacement on reload.
type Store struct {
	snap atomic.Pointer[Snapshot]
}

// New returns a Store serving the given snapshot. A nil snapshot is
// replaced by an empty one.
func New(s *Snapshot) *Store {
	st := &Store{}
	if s == nil {
		s = &Snapshot{followers: map[graph.VertexID]graph.AdjList{}}
	}
	st.snap.Store(s)
	return st
}

// Followers returns the sorted A's that follow b, or nil if b is unknown to
// this partition. The returned slice is shared and must not be modified.
func (s *Store) Followers(b graph.VertexID) graph.AdjList {
	return s.snap.Load().Followers(b)
}

// Snapshot returns the currently served snapshot.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Reload atomically swaps in a new snapshot; the single-node System calls
// it when the offline pipeline publishes a fresh S.
func (s *Store) Reload(next *Snapshot) {
	if next == nil {
		return
	}
	s.snap.Store(next)
}

// Snapshot is one immutable build of S.
type Snapshot struct {
	followers map[graph.VertexID]graph.AdjList
	numEdges  uint64
}

// Followers returns the sorted follower list for b.
func (s *Snapshot) Followers(b graph.VertexID) graph.AdjList {
	return s.followers[b]
}

// NumInfluencers returns the number of distinct B's with at least one
// in-partition follower.
func (s *Snapshot) NumInfluencers() int { return len(s.followers) }

// NumEdges returns the total A→B edges retained in this snapshot.
func (s *Snapshot) NumEdges() uint64 { return s.numEdges }

// MemoryBytes approximates the resident size: 8 bytes per retained edge
// plus map overhead per influencer.
func (s *Snapshot) MemoryBytes() uint64 {
	const mapEntryOverhead = 48
	return s.numEdges*8 + uint64(len(s.followers))*mapEntryOverhead
}

// Builder constructs a Snapshot from A→B follow edges, applying the two
// policies the paper describes: (1) only A's accepted by the partition
// filter are retained, keeping intersections partition-local; (2) each A is
// limited to at most MaxInfluencers B's, which both improves quality and
// bounds S memory (paper §2).
type Builder struct {
	// Keep accepts the A's owned by this partition. Nil keeps everything
	// (single-node mode).
	Keep func(a graph.VertexID) bool

	// MaxInfluencers caps the number of B's retained per A; 0 means
	// unlimited. When the cap binds, the highest-scored B's win.
	MaxInfluencers int

	// Score ranks an A→B edge for influencer capping; higher is better.
	// Nil scores by recency (edge timestamp).
	Score func(e graph.Edge) float64
}

// Build constructs a snapshot from the A→B edge list. In paper terms: each
// edge's Src is an A, Dst is a B; the output maps each B to its sorted,
// partition-local A's.
func (b *Builder) Build(edges []graph.Edge) *Snapshot {
	kept := edges
	if b.Keep != nil {
		kept = make([]graph.Edge, 0, len(edges))
		for _, e := range edges {
			if b.Keep(e.Src) {
				kept = append(kept, e)
			}
		}
	}
	if b.MaxInfluencers > 0 {
		kept = capInfluencers(kept, b.MaxInfluencers, b.Score)
	}

	followers := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range kept {
		followers[e.Dst] = append(followers[e.Dst], e.Src)
	}
	out := make(map[graph.VertexID]graph.AdjList, len(followers))
	var n uint64
	for bID, as := range followers {
		l := graph.NewAdjList(as)
		out[bID] = l
		n += uint64(len(l))
	}
	return &Snapshot{followers: out, numEdges: n}
}

// BuildFollows builds the already-follows index candidate suppression
// checks: each A Keep accepts, mapped to its sorted followings. The
// influencer cap does not apply — a follow S drops is still a follow.
func (b *Builder) BuildFollows(edges []graph.Edge) map[graph.VertexID]graph.AdjList {
	byA := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range edges {
		if b.Keep == nil || b.Keep(e.Src) {
			byA[e.Src] = append(byA[e.Src], e.Dst)
		}
	}
	out := make(map[graph.VertexID]graph.AdjList, len(byA))
	for a, bs := range byA {
		out[a] = graph.NewAdjList(bs)
	}
	return out
}

// capInfluencers keeps at most max B's per A, preferring higher scores.
func capInfluencers(edges []graph.Edge, max int, score func(graph.Edge) float64) []graph.Edge {
	if score == nil {
		score = func(e graph.Edge) float64 { return float64(e.TS) }
	}
	byA := make(map[graph.VertexID][]graph.Edge)
	for _, e := range edges {
		byA[e.Src] = append(byA[e.Src], e)
	}
	out := make([]graph.Edge, 0, len(edges))
	for _, es := range byA {
		if len(es) > max {
			sort.Slice(es, func(i, j int) bool { return score(es[i]) > score(es[j]) })
			es = es[:max]
		}
		out = append(out, es...)
	}
	return out
}
