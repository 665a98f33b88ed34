package graph

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// decodeFuzzLists turns raw fuzz bytes into sorted, possibly
// duplicate-bearing input lists. 0xFF starts a new list; every other byte
// advances the running value by b%8 — a zero delta produces a duplicate, so
// the corpus naturally exercises the within-list-duplicate semantics the
// kernels must get right.
func decodeFuzzLists(data []byte) []AdjList {
	var lists []AdjList
	var cur AdjList
	v := VertexID(0)
	for _, b := range data {
		if b == 0xFF {
			lists = append(lists, cur)
			cur = nil
			v = 0
			continue
		}
		v += VertexID(b % 8)
		cur = append(cur, v)
	}
	lists = append(lists, cur)
	return lists
}

// FuzzThresholdIntersect differentially tests the threshold kernel against
// the naive distinct-lists oracle and the interface-heap merge it replaced,
// over duplicate-bearing sorted inputs and every feasible k: each strategy
// forced whatever the chooser would pick, the chooser's survivors and counts
// (the counts being what answers every larger k), the Into and allocating
// wrappers and the Go-map baseline. One Scratch serves every k of an input
// and a second, much larger input after it, so a table sized for one call is
// reused by a smaller one; epoch seeds the ScanCount table's stamp, the
// seeds including one call short of its wrap-around.
func FuzzThresholdIntersect(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0, 0, 0xFF, 7}, uint32(0))          // [[0,0],[7]] — the reported bug shape
	f.Add([]byte{0, 0, 0xFF, 0, 3}, uint32(1))       // [[0,0],[0,3]]
	f.Add([]byte{1, 0, 2, 0xFF, 1, 2, 0}, uint32(7)) // dup tails
	f.Add(bytes.Repeat([]byte{0xFF}, 5), uint32(0))  // many empty lists
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 3, 0xFF, 1, 2, 3}, uint32(math.MaxUint32-1))
	f.Add([]byte{0, 1, 0xFF, 0, 2, 0xFF, 1, 1, 0xFF, 0, 0, 1}, uint32(math.MaxUint32))
	strategies := map[string]func(AdjList, []int, []AdjList, int, *Scratch) (AdjList, []int){
		"scancount": scanCountInto,
		"merge":     mergeCountInto,
		"chooser":   ThresholdCountsInto,
	}
	f.Fuzz(func(t *testing.T, data []byte, epoch uint32) {
		if len(data) > 1<<8 {
			return
		}
		small := decodeFuzzLists(data)
		// The same lists stretched far past the small input's table: every
		// element repeated at 32 offsets, so counts are unchanged.
		big := make([]AdjList, len(small))
		for i, l := range small {
			for off := VertexID(0); off < 32; off++ {
				for _, v := range l {
					big[i] = append(big[i], off<<20+v)
				}
			}
		}
		s := &Scratch{epoch: epoch}
		var dst AdjList
		var cnt []int
		for _, lists := range [][]AdjList{small, big, small} {
			for k := 1; k <= len(lists); k++ {
				want := refThreshold(lists, k)
				heapGot, wantCnt := ifaceHeapCountInto(nil, nil, lists, k, nil)
				if !equalLists(heapGot, want) {
					t.Fatalf("k=%d: interface heap = %v, oracle = %v (lists=%v)", k, heapGot, want, lists)
				}
				// A vertex's count is the largest k' it survives: the oracle
				// at k+1 holds exactly the survivors counted above k.
				var above AdjList
				for i, v := range want {
					if wantCnt[i] > k {
						above = append(above, v)
					}
				}
				if next := refThreshold(lists, k+1); !equalLists(above, next) {
					t.Fatalf("k=%d: counts %v of %v filtered to k+1 = %v, oracle = %v (lists=%v)",
						k, wantCnt, want, above, next, lists)
				}
				for name, fn := range strategies {
					dst, cnt = fn(dst[:0], cnt[:0], lists, k, s)
					if !equalLists(dst, want) || !slices.Equal(cnt, wantCnt) {
						t.Fatalf("k=%d: %s = %v counts %v, want %v counts %v (lists=%v)",
							k, name, dst, cnt, want, wantCnt, lists)
					}
				}
				if got := ThresholdIntersect(lists, k); !equalLists(got, want) {
					t.Fatalf("k=%d: ThresholdIntersect = %v, oracle = %v (lists=%v)", k, got, want, lists)
				}
				if got := ThresholdIntersectCount(lists, k); !equalLists(got, want) {
					t.Fatalf("k=%d: Go-map baseline = %v, oracle = %v (lists=%v)", k, got, want, lists)
				}
				if dst = ThresholdIntersectInto(dst[:0], lists, k, s); !equalLists(dst, want) {
					t.Fatalf("k=%d: Into variant = %v, oracle = %v (lists=%v)", k, dst, want, lists)
				}
			}
		}
	})
}
