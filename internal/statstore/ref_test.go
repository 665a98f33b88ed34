package statstore

import (
	"slices"
	"sort"
	"testing"

	"motifstream/internal/graph"
)

// refSnapshot is the map-of-lists build the packed Snapshot replaced — one
// map entry and one slice per key — kept as the reference the packed build is
// held to. Its influencer cap is defined on the edge set: duplicates merge
// first, each (A, B) ranked by its best copy, ties to the lower B.
type refSnapshot struct {
	followers map[graph.VertexID]graph.AdjList
	follows   map[graph.VertexID]graph.AdjList
}

func refBuild(b *Builder, edges []graph.Edge) refSnapshot {
	var kept []graph.Edge
	byA := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range edges {
		if b.Keep == nil || b.Keep(e.Src) {
			kept = append(kept, e)
			byA[e.Src] = append(byA[e.Src], e.Dst)
		}
	}
	ref := refSnapshot{follows: make(map[graph.VertexID]graph.AdjList, len(byA))}
	for a, bs := range byA {
		ref.follows[a] = graph.NewAdjList(bs)
	}
	if b.MaxInfluencers > 0 {
		kept = refCap(kept, b.MaxInfluencers, b.Score)
	}
	followers := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range kept {
		followers[e.Dst] = append(followers[e.Dst], e.Src)
	}
	ref.followers = make(map[graph.VertexID]graph.AdjList, len(followers))
	for bID, as := range followers {
		ref.followers[bID] = graph.NewAdjList(as)
	}
	return ref
}

// refCap keeps at most max distinct B's per A.
func refCap(edges []graph.Edge, max int, score func(graph.Edge) float64) []graph.Edge {
	if score == nil {
		score = func(e graph.Edge) float64 { return float64(e.TS) }
	}
	type ab struct{ a, b graph.VertexID }
	best := make(map[ab]float64)
	byA := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range edges {
		k, s := ab{e.Src, e.Dst}, score(e)
		if old, ok := best[k]; !ok {
			best[k] = s
			byA[e.Src] = append(byA[e.Src], e.Dst)
		} else if s > old {
			best[k] = s
		}
	}
	var out []graph.Edge
	for a, bs := range byA {
		sort.Slice(bs, func(i, j int) bool {
			si, sj := best[ab{a, bs[i]}], best[ab{a, bs[j]}]
			if si != sj {
				return si > sj
			}
			return bs[i] < bs[j]
		})
		if len(bs) > max {
			bs = bs[:max]
		}
		for _, b := range bs {
			out = append(out, graph.Edge{Src: a, Dst: b})
		}
	}
	return out
}

// FuzzStaticBuild holds Build to the map reference: over random edge sets
// with duplicates, partitions, caps and scorers, every Followers and Follows
// answer over the edges' vertices (and a few absent ones) equals the
// reference's, and the same edges reversed and with duplicates added build
// the same answers.
func FuzzStaticBuild(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 10, 0, 1, 20, 0, 1, 30, 0}, uint8(2<<2))           // ties at the cap
	f.Add([]byte{1, 10, 0, 1, 10, 0, 1, 20, 0}, uint8(2<<2))           // a duplicate at the cap
	f.Add([]byte{1, 10, 5, 2, 10, 3, 3, 10, 1, 4, 20, 0}, uint8(0x7b)) // partitions, custom score
	f.Add([]byte{0x81, 0, 9, 0, 0x81, 2, 0xff, 0xfe, 1}, uint8(1<<2|1))
	f.Fuzz(func(t *testing.T, data []byte, params uint8) {
		if len(data) > 3*64 {
			return
		}
		// A byte names vertex b%32, or b%32 << 40 when its top bit is set;
		// three make an edge (A, B, TS%4).
		vertex := func(b byte) graph.VertexID {
			v := graph.VertexID(b % 32)
			if b&0x80 != 0 {
				v <<= 40
			}
			return v
		}
		var edges []graph.Edge
		for i := 0; i+2 < len(data); i += 3 {
			edges = append(edges, follow(vertex(data[i]), vertex(data[i+1]), int64(data[i+2]%4)))
		}
		// params: bit 0 a custom score with heavy ties, bits 2-4 the cap,
		// bits 5-6 the partition count, bit 7 which partition.
		b := &Builder{MaxInfluencers: int(params >> 2 & 7)}
		if params&1 != 0 {
			b.Score = func(e graph.Edge) float64 { return float64(e.Dst % 3) }
		}
		if parts := graph.VertexID(params>>5&3) + 1; parts > 1 {
			pid := graph.VertexID(params>>7) % parts
			b.Keep = func(a graph.VertexID) bool { return a%parts == pid }
		}

		ref := refBuild(b, edges)
		shuffled := slices.Clone(edges)
		slices.Reverse(shuffled)
		shuffled = append(shuffled, edges[:len(edges)/2]...)
		vs := []graph.VertexID{0, 31, 1 << 40, 1<<40 + 33}
		for _, e := range edges {
			vs = append(vs, e.Src, e.Dst)
		}
		for _, snap := range []*Snapshot{b.Build(edges), b.Build(shuffled)} {
			var refEdges uint64
			for _, l := range ref.followers {
				refEdges += uint64(len(l))
			}
			if snap.NumEdges() != refEdges || snap.followers.Len() != len(ref.followers) {
				t.Fatalf("NumEdges, influencers = %d, %d, reference %d, %d (edges %v)",
					snap.NumEdges(), snap.followers.Len(), refEdges, len(ref.followers), edges)
			}
			for _, v := range vs {
				if got, want := snap.Followers(v), ref.followers[v]; !slices.Equal(got, want) {
					t.Fatalf("Followers(%d) = %v, reference %v (edges %v)", v, got, want, edges)
				}
				for _, c := range vs {
					if got, want := snap.Follows(v, c), ref.follows[v].Contains(c); got != want {
						t.Fatalf("Follows(%d, %d) = %v, reference %v (edges %v)", v, c, got, want, edges)
					}
				}
			}
		}
	})
}
