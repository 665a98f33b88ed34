// Package statstore implements the paper's S data structure: the inverted
// static adjacency list. For each B, S stores the sorted list of A's that
// follow B, restricted to the A's owned by the local partition. A Snapshot
// holds S together with the already-follows index candidate suppression
// checks, both packed into flat arrays (graph.Packed), so one immutable value
// is a partition's whole static state. The production system recomputes it
// offline and reloads it periodically (paper §2); the single-node System
// models that with Store.Reload's atomic snapshot swap. A cluster replica
// never swaps: a replica host builds one Snapshot per partition from
// configuration and every replica of that partition on the host serves it,
// so replicas stay a pure function of the stream prefix.
package statstore

import (
	"cmp"
	"slices"
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
		s = (&Builder{}).Build(nil)
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

// Reload atomically swaps in a new snapshot — S and the already-follows
// index together; the single-node System calls it when the offline pipeline
// publishes a fresh S.
func (s *Store) Reload(next *Snapshot) {
	if next == nil {
		return
	}
	s.snap.Store(next)
}

// Snapshot is one immutable build of S and of the already-follows index.
type Snapshot struct {
	followers graph.Packed // S: B → the in-partition A's following it, capped
	follows   graph.Packed // A → every B it follows, uncapped
}

// Followers returns the sorted follower list for b. The list is shared and
// capacity-limited, and must not be modified.
func (s *Snapshot) Followers(b graph.VertexID) graph.AdjList {
	return s.followers.Row(b)
}

// Follows reports whether a follows c by the static edges, the influencer
// cap aside: what candidate suppression checks.
func (s *Snapshot) Follows(a, c graph.VertexID) bool {
	return s.follows.Row(a).Contains(c)
}

// NumEdges returns the total A→B edges retained in S.
func (s *Snapshot) NumEdges() uint64 { return uint64(s.followers.NumValues()) }

// MemoryBytes returns the resident size of S and the already-follows index:
// their arrays' lengths.
func (s *Snapshot) MemoryBytes() uint64 {
	return s.followers.MemoryBytes() + s.follows.MemoryBytes()
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

	// MaxInfluencers caps the number of B's retained per A in S; 0 means
	// unlimited. When the cap binds, the highest-scored B's win, ties going
	// to the lower B.
	MaxInfluencers int

	// Score ranks an A→B edge for influencer capping; higher is better. An
	// edge given more than once is ranked by its best copy. Nil scores by
	// recency (edge timestamp).
	Score func(e graph.Edge) float64
}

// Build constructs a snapshot from the A→B edge list. In paper terms: each
// edge's Src is an A, Dst is a B; the already-follows index maps each
// partition-local A to its sorted B's, and S each B to its sorted,
// partition-local A's. Both depend on the edge set alone, not on its order
// or its duplicates.
func (b *Builder) Build(edges []graph.Edge) *Snapshot {
	n := len(edges)
	if b.Keep != nil {
		n = 0
		for _, e := range edges {
			if b.Keep(e.Src) {
				n++
			}
		}
	}
	pairs := make([]graph.Pair, 0, n)
	for _, e := range edges {
		if b.Keep == nil || b.Keep(e.Src) {
			pairs = append(pairs, graph.Pair{Key: e.Src, Val: e.Dst})
		}
	}
	s := &Snapshot{follows: graph.Pack(pairs)}
	// S inverts the index; an A over the cap keeps its best B's only.
	pairs, over := pairs[:0], false
	s.follows.Each(func(a graph.VertexID, bs graph.AdjList) {
		if b.MaxInfluencers > 0 && len(bs) > b.MaxInfluencers {
			over = true
			return
		}
		for _, bID := range bs {
			pairs = append(pairs, graph.Pair{Key: bID, Val: a})
		}
	})
	if over {
		pairs = b.appendCapped(pairs, edges, &s.follows)
	}
	s.followers = graph.Pack(pairs)
	return s
}

// appendCapped appends a (B, A) pair for each of the MaxInfluencers best B's
// of every A the cap binds on — an A with more B's in follows.
func (b *Builder) appendCapped(dst []graph.Pair, edges []graph.Edge, follows *graph.Packed) []graph.Pair {
	var over []graph.Edge
	for _, e := range edges {
		if len(follows.Row(e.Src)) > b.MaxInfluencers {
			over = append(over, e)
		}
	}
	slices.SortFunc(over, func(x, y graph.Edge) int {
		return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst))
	})
	var ranked []rankedB
	for i := 0; i < len(over); {
		a, j := over[i].Src, i+1
		for j < len(over) && over[j].Src == a {
			j++
		}
		ranked = b.rank(ranked[:0], over[i:j])
		for _, r := range ranked[:b.MaxInfluencers] {
			dst = append(dst, graph.Pair{Key: r.b, Val: a})
		}
		i = j
	}
	return dst
}

// rankedB is one distinct B of an A with its best score.
type rankedB struct {
	b     graph.VertexID
	score float64
}

// rank appends run's distinct B's to dst — run is one A's edges sorted by B —
// each scored by its best copy, ordered best first with ties to the lower B.
func (b *Builder) rank(dst []rankedB, run []graph.Edge) []rankedB {
	score := b.Score
	if score == nil {
		score = func(e graph.Edge) float64 { return float64(e.TS) }
	}
	for k, e := range run {
		s := score(e)
		if k > 0 && e.Dst == run[k-1].Dst {
			dst[len(dst)-1].score = max(dst[len(dst)-1].score, s)
			continue
		}
		dst = append(dst, rankedB{b: e.Dst, score: s})
	}
	slices.SortFunc(dst, func(x, y rankedB) int {
		return cmp.Or(cmp.Compare(y.score, x.score), cmp.Compare(x.b, y.b))
	})
	return dst
}
