package partition

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"motifstream/internal/codecutil"
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
	if p.part.PartitionOf(2) != p.id {
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
				if p.part.PartitionOf(c.User) != p.id {
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

// The log keeps exactly the last depth candidates of a user: a full user's
// blocks slide in place, so once one has held the most runs its stream's
// shape puts in a list (one more completion after filling up) none of them
// grows or moves however many adds follow, and what slid out pins nothing —
// no arena element holds a pointer, so nothing evicted is reachable from what
// lies past a list in its block.
func TestCandidateLogSlidesInPlace(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(logRun{}), reflect.TypeOf(userLog{}.progs).Elem(), reflect.TypeOf(userLog{}.vias).Elem()} {
		fields := []reflect.Type{typ}
		if typ.Kind() == reflect.Struct {
			fields = fields[:0]
			for i := 0; i < typ.NumField(); i++ {
				fields = append(fields, typ.Field(i).Type)
			}
		}
		for _, f := range fields {
			if k := f.Kind(); k < reflect.Int || k > reflect.Uint64 {
				t.Fatalf("%v holds a %v: the arenas must be pointer-free", typ, f)
			}
		}
	}
	for _, runLen := range []int{1, 3} { // one program a completion, or three
		for _, depth := range []int{1, 2, 5, 16, 17} {
			l := newCandidateLog(depth)
			full := depth + runLen - 1
			// place is where a record's blocks lie and how big they are.
			place := func(u logUser) [6]uint32 {
				return [6]uint32{u.runs.Off, u.runs.Size, u.progs.Off, u.progs.Size, u.vias.Off, u.vias.Size}
			}
			var at [6]uint32 // the full user's place from then on
			for i := 1; i <= 10*depth; i++ {
				completion := graph.VertexID((i + runLen - 1) / runLen)
				l.addAll([]motif.Candidate{{
					User: 7, Item: completion, Via: []graph.VertexID{1, 2, completion},
					Program: fmt.Sprintf("p%d", i%runLen),
				}})
				u := l.recs[l.index[7]]
				if depth > 1 && (int(u.runs.Size) > depth || int(u.progs.Size) > depth || int(u.vias.Size) > 3*depth) {
					t.Fatalf("depth %d: blocks of %d runs, %d programs, %d Via elements after %d adds",
						depth, u.runs.Size, u.progs.Size, u.vias.Size, i)
				}
				if int(u.progs.N) != min(i, depth) || u.vias.N != 3*u.runs.N {
					t.Fatalf("depth %d: %d candidates in %d runs with %d Via elements after %d adds",
						depth, u.progs.N, u.runs.N, u.vias.N, i)
				}
				if i == full {
					at = place(u)
				} else if i > full && place(u) != at {
					t.Fatalf("depth %d: add %d moved a block of a full user instead of sliding it", depth, i)
				}
			}
			got := l.get(7)
			if len(got) != depth {
				t.Fatalf("depth %d: get returned %d candidates", depth, len(got))
			}
			for i, c := range got {
				n := 9*depth + i + 1
				want := graph.VertexID((n + runLen - 1) / runLen)
				if c.Item != want || c.Program != fmt.Sprintf("p%d", n%runLen) || !slices.Equal(c.Via, []graph.VertexID{1, 2, want}) {
					t.Errorf("depth %d: entry %d is %+v, want item %d", depth, i, c, want)
				}
			}
		}
	}
	// A restored list longer than the depth is cut to it by the next add.
	l := newCandidateLog(2)
	l.install(codecutil.Run[graph.VertexID, []motif.Candidate]{{Key: 7, Val: []motif.Candidate{
		{User: 7, Item: 1}, {User: 7, Item: 2}, {User: 7, Item: 3}, {User: 7, Item: 4},
	}}})
	if got := l.get(7); len(got) != 4 {
		t.Errorf("over-long list as restored: %v", got)
	}
	l.addAll([]motif.Candidate{{User: 7, Item: 5}})
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
}
