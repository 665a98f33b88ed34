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
