package baseline

import (
	"math"

	"motifstream/internal/bloom"
	"motifstream/internal/graph"
)

// TwoHop materializes, for every user A, the set of accounts reachable in
// two hops (the C's that any of A's followings follow) — the paper's second
// rejected design. Detection of a forming motif would then be a membership
// probe, but the materialized sets are enormous: a user following n
// accounts of mean out-degree d owns a two-hop set of ~n·d entries, and the
// whole structure costs Θ(Σ_A |followings(A)|·d̄) ≈ E·d̄ entries for E
// first-hop edges. Bloom filters shave the constant (≈10 bits/entry at 1%
// FP) but not the asymptotics, which is exactly the paper's "rough
// calculation shows that this is impractical".
type TwoHop struct {
	filters map[graph.VertexID]*bloom.Filter
	exact   map[graph.VertexID]map[graph.VertexID]bool // nil unless TrackExact
}

// TwoHopConfig parametrizes materialization.
type TwoHopConfig struct {
	// FPRate is the Bloom false-positive target per user filter.
	// Zero selects 0.01.
	FPRate float64
	// TrackExact additionally keeps exact sets for verification; only
	// feasible at laptop scale.
	TrackExact bool
}

// BuildTwoHop materializes two-hop neighborhoods from the A→B follow edge
// list. Every A gets a Bloom filter over {C : ∃B, A→B and B→C}.
func BuildTwoHop(cfg TwoHopConfig, followEdges []graph.Edge) *TwoHop {
	if cfg.FPRate <= 0 || cfg.FPRate >= 1 {
		cfg.FPRate = 0.01
	}
	pairs := make([]graph.Pair, len(followEdges))
	for i, e := range followEdges {
		pairs[i] = graph.Pair{Key: e.Src, Val: e.Dst}
	}
	forward := graph.Pack(pairs)
	t := &TwoHop{filters: make(map[graph.VertexID]*bloom.Filter)}
	if cfg.TrackExact {
		t.exact = make(map[graph.VertexID]map[graph.VertexID]bool)
	}
	forward.Each(func(a graph.VertexID, bs graph.AdjList) {
		// Expected two-hop size: sum of following out-degrees.
		var expected uint64
		for _, b := range bs {
			expected += uint64(len(forward.Row(b)))
		}
		if expected == 0 {
			return
		}
		f := bloom.New(expected, cfg.FPRate)
		var exact map[graph.VertexID]bool
		if t.exact != nil {
			exact = make(map[graph.VertexID]bool, expected)
			t.exact[a] = exact
		}
		for _, b := range bs {
			for _, c := range forward.Row(b) {
				f.Add(uint64(c))
				if exact != nil {
					exact[c] = true
				}
			}
		}
		t.filters[a] = f
	})
	return t
}

// MayContain reports whether c may be within two hops of a (Bloom
// semantics: false negatives never, false positives at the configured
// rate).
func (t *TwoHop) MayContain(a, c graph.VertexID) bool {
	f := t.filters[a]
	return f != nil && f.Contains(uint64(c))
}

// ContainsExact reports exact membership; it requires TrackExact and
// returns false otherwise.
func (t *TwoHop) ContainsExact(a, c graph.VertexID) bool {
	return t.exact != nil && t.exact[a][c]
}

// NumUsers returns the number of users with a materialized filter.
func (t *TwoHop) NumUsers() int { return len(t.filters) }

// MemoryBytes returns the measured resident size of all Bloom filters.
func (t *TwoHop) MemoryBytes() uint64 {
	var total uint64
	for _, f := range t.filters {
		total += f.MemoryBytes()
	}
	return total
}

// MemoryModel is the analytical scaling model used to extrapolate the
// two-hop design to Twitter scale, where building it is impossible.
type MemoryModel struct {
	Users          uint64  // accounts
	MeanOutDegree  float64 // mean followings per account
	FPRate         float64 // per-filter Bloom FP target
	BitsPerEntry   float64 // derived: -ln(p)/(ln 2)^2
	TwoHopEntries  float64 // derived: Users · MeanOutDegree²
	TwoHopBytes    float64 // derived: Bloom bytes for all two-hop sets
	StreamingBytes float64 // derived: S+D bytes for the paper's design
}

// ModelAtScale evaluates the memory model. The streaming design's S holds
// one 8-byte entry per follow edge (Users·MeanOutDegree) and D holds the
// retained stream window (dEntries), both linear; the two-hop design holds
// Users·MeanOutDegree² Bloom entries — quadratic in degree.
func ModelAtScale(users uint64, meanOutDegree float64, fpRate float64, dEntries uint64) MemoryModel {
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	bitsPerEntry := -math.Log(fpRate) / (math.Ln2 * math.Ln2)
	twoHopEntries := float64(users) * meanOutDegree * meanOutDegree
	m := MemoryModel{
		Users:         users,
		MeanOutDegree: meanOutDegree,
		FPRate:        fpRate,
		BitsPerEntry:  bitsPerEntry,
		TwoHopEntries: twoHopEntries,
		TwoHopBytes:   twoHopEntries * bitsPerEntry / 8,
	}
	sBytes := float64(users) * meanOutDegree * 8
	dBytes := float64(dEntries) * 16
	m.StreamingBytes = sBytes + dBytes
	return m
}

// TwitterScaleModel returns the model at the paper's 2012 numbers:
// O(10^8) vertices, O(10^10) edges (mean degree ~100).
func TwitterScaleModel() MemoryModel {
	return ModelAtScale(2e8, 100, 0.01, 1e9)
}
