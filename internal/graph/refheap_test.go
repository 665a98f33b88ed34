package graph

import "container/heap"

// The interface-heap merge the threshold kernel ran until the typed
// strategies replaced it, kept as the second differential reference of
// FuzzThresholdIntersect (refThreshold is the first) and as the baseline
// row of BenchmarkThresholdIntersect. It takes the strategies' signature but
// not their scratch: it builds its heap per call, where the replaced kernel
// kept one in Scratch (a few allocations a call, beside ~400 interface calls).

type refCursor struct {
	list AdjList
	pos  int
}

type refCursorHeap []refCursor

func (h refCursorHeap) Len() int { return len(h) }
func (h refCursorHeap) Less(i, j int) bool {
	return h[i].list[h[i].pos] < h[j].list[h[j].pos]
}
func (h refCursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refCursorHeap) Push(x interface{}) { *h = append(*h, x.(refCursor)) }
func (h *refCursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func ifaceHeapCountInto(dst AdjList, counts []int, lists []AdjList, k int, _ *Scratch) (AdjList, []int) {
	h := &refCursorHeap{}
	for _, l := range lists {
		if len(l) > 0 {
			*h = append(*h, refCursor{list: l})
		}
	}
	heap.Init(h)
	for len(*h) > 0 {
		cur := (*h)[0].list[(*h)[0].pos]
		count := 0
		for len(*h) > 0 && (*h)[0].list[(*h)[0].pos] == cur {
			count++
			c := &(*h)[0]
			for c.pos < len(c.list) && c.list[c.pos] == cur {
				c.pos++
			}
			if c.pos < len(c.list) {
				heap.Fix(h, 0)
			} else if n := len(*h) - 1; n > 0 {
				// As the replaced kernel did: heap.Pop would box the cursor.
				(*h)[0] = (*h)[n]
				*h = (*h)[:n]
				heap.Fix(h, 0)
			} else {
				*h = (*h)[:0]
			}
		}
		if count >= k {
			dst = append(dst, cur)
			counts = append(counts, count)
		}
	}
	return dst, counts
}
