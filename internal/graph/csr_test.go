package graph

import (
	"testing"
)

func edgesOf(pairs ...[2]VertexID) []Edge {
	out := make([]Edge, len(pairs))
	for i, p := range pairs {
		out[i] = Edge{Src: p[0], Dst: p[1], Type: Follow}
	}
	return out
}

func TestBuildCSRBasic(t *testing.T) {
	c := BuildCSR(edgesOf(
		[2]VertexID{0, 1}, [2]VertexID{0, 2}, [2]VertexID{1, 2}, [2]VertexID{2, 0},
	))
	if c.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", c.NumVertices())
	}
	if c.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", c.NumEdges())
	}
	if got := c.Neighbors(0); !equalLists(got, AdjList{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if got := c.Neighbors(1); !equalLists(got, AdjList{2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if got := c.Neighbors(2); !equalLists(got, AdjList{0}) {
		t.Fatalf("Neighbors(2) = %v", got)
	}
	if c.OutDegree(0) != 2 || c.OutDegree(1) != 1 {
		t.Fatal("wrong out-degrees")
	}
}

func TestBuildCSREmpty(t *testing.T) {
	c := BuildCSR(nil)
	if c.NumVertices() != 0 || c.NumEdges() != 0 {
		t.Fatalf("empty CSR: %d vertices, %d edges", c.NumVertices(), c.NumEdges())
	}
	if c.Neighbors(0) != nil {
		t.Fatal("Neighbors on empty CSR should be nil")
	}
}

func TestBuildCSRDedupsAndSorts(t *testing.T) {
	c := BuildCSR(edgesOf(
		[2]VertexID{0, 3}, [2]VertexID{0, 1}, [2]VertexID{0, 3}, [2]VertexID{0, 2},
	))
	got := c.Neighbors(0)
	if !equalLists(got, AdjList{1, 2, 3}) {
		t.Fatalf("Neighbors(0) = %v, want [1 2 3]", got)
	}
	if c.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d after dedup, want 3", c.NumEdges())
	}
}

func TestCSRNeighborsOutOfRange(t *testing.T) {
	c := BuildCSR(edgesOf([2]VertexID{0, 1}))
	if c.Neighbors(99) != nil {
		t.Fatal("out-of-range Neighbors should be nil")
	}
	if c.OutDegree(99) != 0 {
		t.Fatal("out-of-range OutDegree should be 0")
	}
}

func TestCSRSparseIDs(t *testing.T) {
	// Vertex 100 with nothing in between: rows 1..99 must be empty.
	c := BuildCSR(edgesOf([2]VertexID{100, 0}))
	if c.NumVertices() != 101 {
		t.Fatalf("NumVertices = %d, want 101", c.NumVertices())
	}
	for v := VertexID(1); v < 100; v++ {
		if len(c.Neighbors(v)) != 0 {
			t.Fatalf("vertex %d should have no neighbors", v)
		}
	}
	if !equalLists(c.Neighbors(100), AdjList{0}) {
		t.Fatal("vertex 100 neighbors wrong")
	}
}

func TestCSRMemoryBytes(t *testing.T) {
	c := BuildCSR(edgesOf([2]VertexID{0, 1}, [2]VertexID{1, 0}))
	if c.MemoryBytes() == 0 {
		t.Fatal("MemoryBytes should be positive for a non-empty CSR")
	}
}

func TestDegreeStats(t *testing.T) {
	s := ComputeDegreeStats([]int{0, 1, 2, 3, 4, 0, 0})
	if s.N != 4 {
		t.Fatalf("N = %d, want 4 (zeros ignored)", s.N)
	}
	if s.Min != 1 || s.Max != 4 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if s.Mean != 2.5 {
		t.Fatalf("mean = %f", s.Mean)
	}
	if s.Gini < 0 || s.Gini > 1 {
		t.Fatalf("gini = %f out of [0,1]", s.Gini)
	}
	if got := ComputeDegreeStats(nil); got.N != 0 {
		t.Fatal("empty stats should be zero")
	}
	// A perfectly equal distribution has Gini 0.
	eq := ComputeDegreeStats([]int{5, 5, 5, 5})
	if eq.Gini > 1e-9 {
		t.Fatalf("equal distribution gini = %f, want 0", eq.Gini)
	}
	// An extremely skewed one approaches 1.
	skew := make([]int, 1000)
	for i := range skew {
		skew[i] = 1
	}
	skew[0] = 1_000_000
	sk := ComputeDegreeStats(skew)
	if sk.Gini < 0.9 {
		t.Fatalf("skewed gini = %f, want near 1", sk.Gini)
	}
}

func TestInOutDegrees(t *testing.T) {
	edges := edgesOf([2]VertexID{0, 1}, [2]VertexID{0, 2}, [2]VertexID{1, 2})
	in := InDegrees(edges)
	if in[2] != 2 || in[1] != 1 || in[0] != 0 {
		t.Fatalf("in-degrees = %v", in)
	}
	if InDegrees(nil) != nil {
		t.Fatal("degrees of empty edge set should be nil")
	}
}

func TestEdgeStringAndTime(t *testing.T) {
	e := Edge{Src: 1, Dst: 2, Type: Retweet, TS: 1_000}
	if e.String() == "" {
		t.Fatal("empty String()")
	}
	if e.Time().UnixMilli() != 1_000 {
		t.Fatal("Time() round-trip failed")
	}
	if Follow.String() != "follow" || Retweet.String() != "retweet" || Favorite.String() != "favorite" {
		t.Fatal("EdgeType names wrong")
	}
	if EdgeType(42).String() == "" {
		t.Fatal("unknown EdgeType should still render")
	}
}
