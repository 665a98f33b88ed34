package graph

import "testing"

func TestComputeDegreeStats(t *testing.T) {
	s := ComputeDegreeStats([]int{0, 1, 2, 3, 4, 5, 0})
	if s.N != 5 {
		t.Fatalf("N = %d, want 5 (zero degrees ignored)", s.N)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Fatalf("Min/Max = %d/%d, want 1/5", s.Min, s.Max)
	}
	if s.Mean != 3 {
		t.Fatalf("Mean = %v, want 3", s.Mean)
	}
	if s.P50 != 3 {
		t.Fatalf("P50 = %d, want 3", s.P50)
	}
}

func edgesOf(pairs ...[2]VertexID) []Edge {
	out := make([]Edge, len(pairs))
	for i, p := range pairs {
		out[i] = Edge{Src: p[0], Dst: p[1], Type: Follow}
	}
	return out
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
