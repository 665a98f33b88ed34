package graph

import (
	"testing"
	"testing/quick"
)

func TestNewAdjListSortsAndDedups(t *testing.T) {
	tests := []struct {
		name string
		in   []VertexID
		want AdjList
	}{
		{"empty", nil, nil},
		{"single", []VertexID{5}, AdjList{5}},
		{"sorted", []VertexID{1, 2, 3}, AdjList{1, 2, 3}},
		{"reverse", []VertexID{3, 2, 1}, AdjList{1, 2, 3}},
		{"duplicates", []VertexID{2, 1, 2, 3, 1}, AdjList{1, 2, 3}},
		{"all same", []VertexID{7, 7, 7, 7}, AdjList{7}},
		{"max ids", []VertexID{1<<64 - 1, 0, 1<<64 - 1}, AdjList{0, 1<<64 - 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewAdjList(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("NewAdjList(%v) = %v, want %v", tt.in, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("NewAdjList(%v) = %v, want %v", tt.in, got, tt.want)
				}
			}
		})
	}
}

func TestNewAdjListDoesNotModifyInput(t *testing.T) {
	in := []VertexID{3, 1, 2}
	NewAdjList(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input slice modified: %v", in)
	}
}

func TestAdjListContains(t *testing.T) {
	l := NewAdjList([]VertexID{2, 4, 6, 8})
	for _, v := range []VertexID{2, 4, 6, 8} {
		if !l.Contains(v) {
			t.Errorf("Contains(%d) = false, want true", v)
		}
	}
	for _, v := range []VertexID{0, 1, 3, 5, 7, 9, 100} {
		if l.Contains(v) {
			t.Errorf("Contains(%d) = true, want false", v)
		}
	}
	var empty AdjList
	if empty.Contains(1) {
		t.Error("empty list Contains(1) = true")
	}
}

func TestAdjListIsSorted(t *testing.T) {
	if !(AdjList{}).IsSorted() {
		t.Error("empty list should be sorted")
	}
	if !(AdjList{1}).IsSorted() {
		t.Error("singleton should be sorted")
	}
	if (AdjList{1, 1}).IsSorted() {
		t.Error("duplicate entries violate the strict invariant")
	}
	if (AdjList{2, 1}).IsSorted() {
		t.Error("descending list reported sorted")
	}
}

func TestAdjListClone(t *testing.T) {
	l := NewAdjList([]VertexID{1, 2, 3})
	c := l.Clone()
	c[0] = 99
	if l[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	if (AdjList)(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

// Property: NewAdjList always yields a strictly sorted list containing
// exactly the distinct input values.
func TestNewAdjListProperties(t *testing.T) {
	f := func(ids []uint64) bool {
		in := make([]VertexID, len(ids))
		set := make(map[VertexID]bool)
		for i, v := range ids {
			in[i] = VertexID(v)
			set[VertexID(v)] = true
		}
		l := NewAdjList(in)
		if !l.IsSorted() {
			return false
		}
		if len(l) != len(set) {
			return false
		}
		for _, v := range l {
			if !set[v] {
				return false
			}
		}
		// Contains must agree with the set for members and a non-member.
		for v := range set {
			if !l.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
