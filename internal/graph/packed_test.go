package graph

import (
	"math"
	"testing"
)

func TestPackBasic(t *testing.T) {
	p := Pack([]Pair{{0, 1}, {0, 2}, {1, 2}, {2, 0}})
	if p.Len() != 3 || p.NumValues() != 4 {
		t.Fatalf("Len, NumValues = %d, %d, want 3, 4", p.Len(), p.NumValues())
	}
	for key, want := range map[VertexID]AdjList{0: {1, 2}, 1: {2}, 2: {0}} {
		if got := p.Row(key); !equalLists(got, want) {
			t.Fatalf("Row(%d) = %v, want %v", key, got, want)
		}
	}
	seen := map[VertexID]int{}
	p.Each(func(key VertexID, row AdjList) { seen[key] = len(row) })
	if len(seen) != 3 || seen[0] != 2 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("Each visited %v", seen)
	}
}

func TestPackEmpty(t *testing.T) {
	p := Pack(nil)
	if p.Len() != 0 || p.NumValues() != 0 || p.Row(0) != nil {
		t.Fatalf("empty Pack: %d keys, %d values, Row(0) = %v", p.Len(), p.NumValues(), p.Row(0))
	}
	p.Each(func(VertexID, AdjList) { t.Fatal("Each visited a key of an empty Pack") })
}

func TestPackSortsAndDedups(t *testing.T) {
	p := Pack([]Pair{{10, 3}, {20, 1}, {10, 1}, {10, 3}, {30, 3}, {20, 4}, {10, 2}, {20, 1}})
	if !equalLists(p.Row(10), AdjList{1, 2, 3}) || !equalLists(p.Row(20), AdjList{1, 4}) || !equalLists(p.Row(30), AdjList{3}) {
		t.Fatalf("rows 10 %v, 20 %v, 30 %v", p.Row(10), p.Row(20), p.Row(30))
	}
	if p.Len() != 3 || p.NumValues() != 6 {
		t.Fatalf("Len, NumValues = %d, %d after dedup, want 3, 6", p.Len(), p.NumValues())
	}
	if got, want := p.MemoryBytes(), uint64(4*8+5*4+6*8); got != want {
		t.Fatalf("MemoryBytes = %d, want %d: the ID array keeps its exact length", got, want)
	}
}

// TestPackMissingKeys probes absent keys, key 0 (the value an empty slot
// holds) among them, on a table full enough that probes run past occupied
// slots.
func TestPackMissingKeys(t *testing.T) {
	var pairs []Pair
	for k := VertexID(1); k <= 96; k++ {
		pairs = append(pairs, Pair{k, k})
	}
	p := Pack(pairs)
	for k := VertexID(1); k <= 96; k++ {
		if !equalLists(p.Row(k), AdjList{k}) {
			t.Fatalf("Row(%d) = %v", k, p.Row(k))
		}
	}
	for _, k := range []VertexID{0, 97, 1 << 40, math.MaxUint64} {
		if p.Row(k) != nil {
			t.Fatalf("absent key %d has row %v", k, p.Row(k))
		}
	}
}

func TestPackSparseIDs(t *testing.T) {
	p := Pack([]Pair{{0, 7}, {1 << 40, 0}, {1 << 40, math.MaxUint64}, {math.MaxUint64, 1}})
	if !equalLists(p.Row(0), AdjList{7}) || !equalLists(p.Row(1<<40), AdjList{0, math.MaxUint64}) || !equalLists(p.Row(math.MaxUint64), AdjList{1}) {
		t.Fatalf("rows 0 %v, 2^40 %v, max %v", p.Row(0), p.Row(1<<40), p.Row(math.MaxUint64))
	}
}

// TestPackMemoryBytes: the size is the arrays' — three keys in a table of
// four slots, five offsets, four values.
func TestPackMemoryBytes(t *testing.T) {
	p := Pack([]Pair{{0, 1}, {0, 2}, {1, 2}, {2, 0}})
	if got, want := p.MemoryBytes(), uint64(4*8+5*4+4*8); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestPackRowIsCapacityLimited: appending to a returned row copies instead of
// overwriting the next key's list.
func TestPackRowIsCapacityLimited(t *testing.T) {
	p := Pack([]Pair{{1, 1}, {2, 2}})
	row := p.Row(1)
	_ = append(row, 99)
	if !equalLists(p.Row(1), AdjList{1}) || !equalLists(p.Row(2), AdjList{2}) {
		t.Fatalf("append through a row changed the index: %v %v", p.Row(1), p.Row(2))
	}
}
