package partition

import (
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

func diamondProgs() []motif.Program {
	return []motif.Program{
		motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute}),
	}
}

// fig1Edges is the static part of the paper's Figure 1.
func fig1Edges() []graph.Edge {
	return []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10}, // A1,A2 → B1
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11}, // A2,A3 → B2
	}
}

func TestHashPartitionerUniformAndStable(t *testing.T) {
	p := NewHashPartitioner(8)
	if p.N() != 8 {
		t.Fatalf("N = %d", p.N())
	}
	counts := make([]int, 8)
	for v := graph.VertexID(0); v < 8_000; v++ {
		i := p.PartitionOf(v)
		if i < 0 || i >= 8 {
			t.Fatalf("partition %d out of range", i)
		}
		if i != p.PartitionOf(v) {
			t.Fatal("assignment not stable")
		}
		counts[i]++
	}
	for i, c := range counts {
		if c < 700 || c > 1_300 {
			t.Fatalf("partition %d has %d of 8000 vertices; poor spread %v", i, c, counts)
		}
	}
}

func TestNewHashPartitionerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewHashPartitioner(0)
}

func TestPartitionConfigValidation(t *testing.T) {
	if _, err := New(Config{ID: 0, Programs: diamondProgs()}); err == nil {
		t.Fatal("missing partitioner accepted")
	}
	part := NewHashPartitioner(2)
	if _, err := New(Config{ID: 5, Partitioner: part, Programs: diamondProgs()}); err == nil {
		t.Fatal("out-of-range ID accepted")
	}
	if _, err := New(Config{ID: -1, Partitioner: part, Programs: diamondProgs()}); err == nil {
		t.Fatal("negative ID accepted")
	}
}

// singlePartitioner puts every user in partition 0 of 1.
type singlePartitioner struct{}

func (singlePartitioner) PartitionOf(graph.VertexID) int { return 0 }
func (singlePartitioner) N() int                         { return 1 }

func TestPartitionDetectsFigure1(t *testing.T) {
	p, err := New(Config{
		ID:          0,
		StaticEdges: fig1Edges(),
		Partitioner: singlePartitioner{},
		Dynamic:     dynstore.Options{Retention: time.Hour},
		Programs:    diamondProgs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	if got := p.Apply(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0}); len(got) != 0 {
		t.Fatalf("premature candidates: %v", got)
	}
	got := p.Apply(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1_000})
	if len(got) != 1 || got[0].User != 2 || got[0].Item != 99 {
		t.Fatalf("want recommend 99 to user 2, got %v", got)
	}
	// The candidate is also served from the per-user log.
	recs := p.RecommendationsFor(2)
	if len(recs) != 1 || recs[0].Item != 99 {
		t.Fatalf("RecommendationsFor(2) = %v", recs)
	}
	if !p.Owns(2) {
		t.Fatal("single partition must own everyone")
	}
	if p.ID() != 0 || p.Engine() == nil {
		t.Fatal("accessors broken")
	}
}

// TestPartitionLocality is the paper's core partitioning property: each
// partition detects exactly the candidates for its own A's, and the union
// over partitions equals the single-node result.
func TestPartitionLocality(t *testing.T) {
	static := fig1Edges()
	// Add a second recipient so multiple partitions can detect.
	static = append(static, graph.Edge{Src: 4, Dst: 10}, graph.Edge{Src: 4, Dst: 11})

	dyn := []graph.Edge{
		{Src: 10, Dst: 99, Type: graph.Follow, TS: 1_000},
		{Src: 11, Dst: 99, Type: graph.Follow, TS: 2_000},
	}

	// Single-node reference.
	single, err := New(Config{
		ID: 0, StaticEdges: static, Partitioner: singlePartitioner{},
		Dynamic:  dynstore.Options{Retention: time.Hour},
		Programs: diamondProgs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref []motif.Candidate
	for _, e := range dyn {
		ref = append(ref, single.Apply(e)...)
	}

	// Partitioned run: every partition sees the full stream.
	part := NewHashPartitioner(4)
	var parts []*Partition
	for id := 0; id < 4; id++ {
		p, err := New(Config{
			ID: id, StaticEdges: static, Partitioner: part,
			Dynamic:  dynstore.Options{Retention: time.Hour},
			Programs: diamondProgs(),
		})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	var combined []motif.Candidate
	for _, e := range dyn {
		for _, p := range parts {
			for _, c := range p.Apply(e) {
				if !p.Owns(c.User) {
					t.Fatalf("partition %d emitted candidate for foreign user %d", p.ID(), c.User)
				}
				combined = append(combined, c)
			}
		}
	}

	key := func(c motif.Candidate) [2]graph.VertexID { return [2]graph.VertexID{c.User, c.Item} }
	refSet := map[[2]graph.VertexID]bool{}
	for _, c := range ref {
		refSet[key(c)] = true
	}
	gotSet := map[[2]graph.VertexID]bool{}
	for _, c := range combined {
		if gotSet[key(c)] {
			t.Fatalf("duplicate candidate across partitions: %v", key(c))
		}
		gotSet[key(c)] = true
	}
	if len(refSet) != len(gotSet) {
		t.Fatalf("partitioned union %v != single-node %v", gotSet, refSet)
	}
	for k := range refSet {
		if !gotSet[k] {
			t.Fatalf("candidate %v missing from partitioned run", k)
		}
	}
}

func TestRecommendationsForForeignUser(t *testing.T) {
	part := NewHashPartitioner(2)
	p, err := New(Config{
		ID: 0, StaticEdges: fig1Edges(), Partitioner: part,
		Dynamic:  dynstore.Options{Retention: time.Hour},
		Programs: diamondProgs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A user owned by partition 1 must get nil from partition 0.
	var foreign graph.VertexID
	for v := graph.VertexID(0); ; v++ {
		if part.PartitionOf(v) == 1 {
			foreign = v
			break
		}
	}
	if p.RecommendationsFor(foreign) != nil {
		t.Fatal("foreign user served from wrong partition")
	}
}

// The log keeps exactly the last depth candidates of a user reachable: a full
// list slides in place, so the array neither regrows to twice the depth nor
// holds evicted candidates (and the Via arrays they point to) outside the
// list.
func TestCandidateLogSlidesInPlace(t *testing.T) {
	for _, depth := range []int{1, 2, 5, 16, 17} {
		l := newCandidateLog(depth)
		var full *motif.Candidate // the array's first slot once the list is full
		for i := 1; i <= 10*depth; i++ {
			l.add(motif.Candidate{User: 7, Item: graph.VertexID(i), Via: []graph.VertexID{1, 2, 3}})
			list := l.byA[7]
			if cap(list) >= 2*depth && depth > 1 {
				t.Fatalf("depth %d: array of %d slots after %d adds", depth, cap(list), i)
			}
			if i == depth {
				full = &list[0]
			} else if i > depth && &list[0] != full {
				t.Fatalf("depth %d: add %d moved the list instead of sliding it", depth, i)
			}
		}
		list := l.byA[7]
		got := l.get(7)
		if len(got) != depth {
			t.Fatalf("depth %d: get returned %d candidates", depth, len(got))
		}
		for i, c := range got {
			if want := graph.VertexID(9*depth + i + 1); c.Item != want {
				t.Errorf("depth %d: entry %d is item %d, want %d", depth, i, c.Item, want)
			}
		}
		for i, c := range list[len(list):cap(list)] {
			if c.Via != nil || c.Item != 0 {
				t.Errorf("depth %d: evicted candidate %d still held at slot %d", depth, c.Item, len(list)+i)
			}
		}
	}
	// A restored list longer than the depth is cut to it by the next add.
	l := newCandidateLog(2)
	l.byA[7] = []motif.Candidate{{User: 7, Item: 1}, {User: 7, Item: 2}, {User: 7, Item: 3}, {User: 7, Item: 4}}
	l.add(motif.Candidate{User: 7, Item: 5})
	if got := l.get(7); len(got) != 2 || got[0].Item != 4 || got[1].Item != 5 {
		t.Errorf("over-long list after an add: %v", got)
	}
}

func TestCandidateLogDepthAndSweep(t *testing.T) {
	p, err := New(Config{
		ID: 0, StaticEdges: fig1Edges(), Partitioner: singlePartitioner{},
		Dynamic:       dynstore.Options{Retention: time.Hour},
		Programs:      diamondProgs(),
		RecentPerUser: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Complete the motif three times with different targets.
	t0 := int64(1_000_000)
	for i, target := range []graph.VertexID{90, 91, 92} {
		ts := t0 + int64(i)*10_000
		p.Apply(graph.Edge{Src: 10, Dst: target, Type: graph.Follow, TS: ts})
		p.Apply(graph.Edge{Src: 11, Dst: target, Type: graph.Follow, TS: ts + 1})
	}
	recs := p.RecommendationsFor(2)
	if len(recs) != 2 {
		t.Fatalf("log depth 2 violated: %d entries", len(recs))
	}
	// Only the two most recent targets remain.
	if recs[0].Item != 91 || recs[1].Item != 92 {
		t.Fatalf("wrong retained candidates: %v, %v", recs[0].Item, recs[1].Item)
	}
	// Sweep drops older candidates.
	p.SweepBefore(t0 + 15_000)
	recs = p.RecommendationsFor(2)
	if len(recs) != 1 || recs[0].Item != 92 {
		t.Fatalf("after sweep: %v", recs)
	}
	// Sweeping everything empties the log.
	p.SweepBefore(t0 + 100_000)
	if p.RecommendationsFor(2) != nil {
		t.Fatal("sweep-all left candidates behind")
	}
}
