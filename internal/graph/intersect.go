package graph

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// This file implements the intersection kernels used by the diamond
// detector. The paper intersects the sorted follower lists of the B's that
// recently pointed at C; with the production setting k=3 out of n≥3 recent
// B's, the required operation is the k-of-n threshold intersection: every A
// appearing in at least k of the lists. Exact intersection (k == n) gets
// the classic two-pointer and galloping kernels. Threshold intersection is
// one kernel, ThresholdCountsInto, that returns the survivors of a minimum
// k with the number of lists holding each — so one pass answers every
// larger k — and picks per call, from the shape of the lists, between
// ScanCount over a reusable counter table (many short lists, the deployed
// shape) and a typed heap merge (unions and lists too long for the table).
// BenchmarkThresholdIntersect times each strategy forced on each shape;
// benchreport's E8 compares the chooser with a Go-map baseline.
//
// Semantics: all kernels treat their inputs as *sets* presented in sorted
// order. AdjList's invariant is sorted-and-distinct, but the kernels must
// tolerate duplicate entries within a list (callers may hand them slices
// built outside NewAdjList): a vertex appearing twice in one list still
// counts that list once toward k, and outputs never contain duplicates.
//
// The *Into variants append into a caller-owned buffer and take a Scratch
// for intermediates, so a warmed-up caller does zero heap allocation per
// call. The allocation-friendly wrappers (Intersect, ThresholdIntersect,
// ...) remain for callers that don't care.

// Scratch holds the reusable intermediates the *Into kernels need. A
// Scratch is single-goroutine; use GetScratch/PutScratch to recycle them
// across calls without allocation.
type Scratch struct {
	tmpA AdjList
	tmpB AdjList
	ord  []AdjList

	// Threshold kernel state: the merge's cursor heap, the ScanCount table
	// with the epoch its live slots carry, and the counts a caller of
	// ThresholdIntersectInto does not ask for.
	heap  []listCursor
	tab   []countSlot
	epoch uint32
	cnt   []int
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch returns a Scratch from the pool, buffers warmed by prior use.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch recycles s. The caller must not use s afterwards.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// IntersectMerge computes the exact intersection of two sorted lists with a
// linear two-pointer merge. Output is sorted and duplicate-free.
func IntersectMerge(a, b AdjList) AdjList {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return IntersectMergeInto(make(AdjList, 0, minInt(len(a), len(b))), a, b)
}

// IntersectMergeInto appends the exact intersection of two sorted lists to
// dst and returns the extended slice. Zero allocations once dst has
// capacity.
func IntersectMergeInto(dst AdjList, a, b AdjList) AdjList {
	base := len(dst)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if len(dst) == base || dst[len(dst)-1] != a[i] {
				dst = append(dst, a[i])
			}
			i++
			j++
		}
	}
	return dst
}

// IntersectGallop computes the exact intersection of two sorted lists by
// galloping (exponential) search of the longer list for each element of the
// shorter. It wins when the lists differ greatly in length, the common case
// when one B is a celebrity account and another is not.
func IntersectGallop(a, b AdjList) AdjList {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return IntersectGallopInto(make(AdjList, 0, minInt(len(a), len(b))), a, b)
}

// IntersectGallopInto appends the exact intersection of two sorted lists to
// dst and returns the extended slice.
func IntersectGallopInto(dst AdjList, a, b AdjList) AdjList {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	base := len(dst)
	lo := 0
	for _, v := range a {
		if len(dst) > base && dst[len(dst)-1] == v {
			continue // duplicate within a; already matched
		}
		// Gallop forward from lo to find the first b index with b[i] >= v.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < v {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		i := lo + sort.Search(hi-lo, func(i int) bool { return b[lo+i] >= v })
		if i < len(b) && b[i] == v {
			dst = append(dst, v)
			lo = i + 1
		} else {
			lo = i
		}
		if lo >= len(b) {
			break
		}
	}
	return dst
}

// IntersectInto picks an exact-intersection kernel based on the size ratio
// of the inputs and appends the result to dst. The 32x cutover matches the
// E8 ablation crossover.
func IntersectInto(dst AdjList, a, b AdjList) AdjList {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return dst
	}
	if la > lb {
		la, lb = lb, la
	}
	if lb/la >= 32 {
		return IntersectGallopInto(dst, a, b)
	}
	return IntersectMergeInto(dst, a, b)
}

// IntersectAll computes the exact intersection of all lists (k == n).
// Lists are processed shortest-first so intermediate results shrink fast.
// The result is a fresh slice (never aliases an input).
func IntersectAll(lists []AdjList) AdjList {
	if len(lists) == 0 {
		return nil
	}
	s := GetScratch()
	out := intersectAllInto(nil, lists, s)
	PutScratch(s)
	return out
}

// intersectAllInto appends the exact intersection of all lists to dst,
// using s for intermediates. dst never aliases an input list.
func intersectAllInto(dst AdjList, lists []AdjList, s *Scratch) AdjList {
	switch len(lists) {
	case 0:
		return dst
	case 1:
		base := len(dst)
		for _, v := range lists[0] {
			if len(dst) > base && dst[len(dst)-1] == v {
				continue
			}
			dst = append(dst, v)
		}
		return dst
	}
	ord := append(s.ord[:0], lists...)
	// Insertion sort by length: n is small and sort.Slice would allocate.
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && len(ord[j]) < len(ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	s.ord = ord
	acc := IntersectInto(s.tmpA[:0], ord[0], ord[1])
	spare := s.tmpB
	for _, l := range ord[2:] {
		if len(acc) == 0 {
			break
		}
		next := IntersectInto(spare[:0], acc, l)
		spare, acc = acc, next
	}
	s.tmpA, s.tmpB = acc, spare // return grown buffers to the scratch
	return append(dst, acc...)
}

// ThresholdIntersect returns, in sorted order, every vertex that appears in
// at least k *distinct* lists. A vertex occurring multiple times within one
// list counts that list once — lists are sets, duplicates carry no weight.
// k == len(lists) degenerates to IntersectAll; k == 1 is a sorted union.
func ThresholdIntersect(lists []AdjList, k int) AdjList {
	if k <= 0 || len(lists) < k {
		return nil
	}
	s := GetScratch()
	out := ThresholdIntersectInto(nil, lists, k, s)
	PutScratch(s)
	return out
}

// ThresholdIntersectInto appends the k-of-n threshold intersection to dst
// and returns the extended slice. s provides the kernel's intermediates; a
// warmed-up (Scratch, dst) pair makes the call allocation-free.
func ThresholdIntersectInto(dst AdjList, lists []AdjList, k int, s *Scratch) AdjList {
	dst, s.cnt = ThresholdCountsInto(dst, s.cnt[:0], lists, k, s)
	return dst
}

// ThresholdCountsInto is the threshold kernel's one pass: it appends to dst,
// in sorted order, every vertex held by at least k distinct lists, and to
// counts — index-aligned with the vertices appended — how many lists hold
// each. One call at the smallest k of interest answers every larger k by
// filtering counts[i] >= k'. k <= 0 or len(lists) < k appends nothing.
//
// The strategy is a function of (len(lists), Σ len(list), k) alone:
//
//   - k == len(lists): the exact intersection, shortest list first;
//   - k >= 2 and at most scanCountMaxElems elements in all (the deployed
//     shape: a few dozen short follower lists): ScanCount into the scratch's
//     epoch-stamped counter table;
//   - otherwise — a union, or lists too long for the table — a typed heap
//     merge over list cursors.
func ThresholdCountsInto(dst AdjList, counts []int, lists []AdjList, k int, s *Scratch) (AdjList, []int) {
	if k <= 0 || len(lists) < k {
		return dst, counts
	}
	if k == len(lists) {
		base := len(dst)
		dst = intersectAllInto(dst, lists, s)
		for range dst[base:] {
			counts = append(counts, k)
		}
		return dst, counts
	}
	if k >= 2 && totalLen(lists) <= scanCountMaxElems {
		return scanCountInto(dst, counts, lists, k, s)
	}
	return mergeCountInto(dst, counts, lists, k, s)
}

// scanCountMaxElems bounds the ScanCount table at 2^16 slots, 1 MiB of a
// pooled Scratch. On BenchmarkThresholdIntersect's balanced rows ScanCount
// beats the merge at every size (about 5x on deployed, 3.5-4x on
// balanced-long's 31 700 elements, which is why the bound sits above that
// row), so the bound is a memory bound, not a crossover; the merge wins where
// one list dwarfs the rest (skewed-long, 50 000 elements, 1.3-1.5x) and on a
// union (k = 1, 1.4x: every element survives, and sorting them all costs
// more than merging them).
const scanCountMaxElems = 1 << 15

func totalLen(lists []AdjList) int {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	return total
}

// countSlot is one entry of the ScanCount table. A slot belongs to the
// current call only when its epoch matches the scratch's, so the table is
// never cleared between calls.
type countSlot struct {
	key   VertexID
	epoch uint32
	count uint32
}

// countTable returns a table of at least two slots per element for one
// ScanCount call — a power-of-two prefix of s.tab, so a small call after a
// large one stays cache-resident — with the hash shift that indexes it and
// s.epoch advanced to the call's stamp.
func (s *Scratch) countTable(total int) ([]countSlot, uint) {
	logSlots := bits.Len(uint(2*total - 1))
	if logSlots < 4 {
		logSlots = 4
	}
	if len(s.tab) < 1<<logSlots {
		s.tab = make([]countSlot, 1<<logSlots)
	}
	s.epoch++
	if s.epoch == 0 {
		// Wrapped: a stamp left 2^32 calls ago would read as current (and a
		// never-used slot as occupied at epoch 0). Start over.
		clear(s.tab)
		s.epoch = 1
	}
	return s.tab[:1<<logSlots], uint(64 - logSlots)
}

// scanCountInto is the ScanCount strategy: one pass over every element
// bumping a per-vertex counter in an open-addressing table, a vertex joining
// the output the moment its count reaches k; then a sort of the survivors
// (few, at k >= 2) and one more probe each for the final counts. Sorted
// input makes a within-list duplicate adjacent, so skipping it is one
// comparison.
func scanCountInto(dst AdjList, counts []int, lists []AdjList, k int, s *Scratch) (AdjList, []int) {
	total := totalLen(lists)
	if total == 0 {
		return dst, counts
	}
	tab, shift := s.countTable(total)
	mask, epoch := len(tab)-1, s.epoch
	base := len(dst)
	for _, l := range lists {
		for i, v := range l {
			if i > 0 && v == l[i-1] {
				continue
			}
			for h := int(uint64(v) * fibHash >> shift); ; h = (h + 1) & mask {
				sl := &tab[h]
				if sl.epoch != epoch {
					*sl = countSlot{key: v, epoch: epoch, count: 1}
				} else if sl.key == v {
					sl.count++
				} else {
					continue
				}
				if sl.count == uint32(k) {
					dst = append(dst, v)
				}
				break
			}
		}
	}
	out := dst[base:]
	slices.Sort(out)
	for _, v := range out {
		h := int(uint64(v) * fibHash >> shift)
		for tab[h].key != v || tab[h].epoch != epoch {
			h = (h + 1) & mask
		}
		counts = append(counts, int(tab[h].count))
	}
	return dst, counts
}

// fibHash is 2^64 / φ: multiplying by it and keeping the top bits spreads
// the dense, sequential vertex IDs of a follower list over the table.
const fibHash = 0x9E3779B97F4A7C15

// listCursor is one list's position in the heap merge: its current element,
// held beside the heap's comparisons, and the elements after it.
type listCursor struct {
	head VertexID
	rest AdjList
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []listCursor, i int) {
	c := h[i]
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && h[r].head < h[l].head {
			l = r
		}
		if h[l].head >= c.head {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = c
}

// mergeCountInto is the merge strategy: a binary min-heap of list cursors
// pops the lists' elements in ascending order, so the cursors sharing the
// smallest head are exactly the lists that hold it. Cost is O(total · log n)
// whatever k is, with no table to size, and it stops as soon as fewer than k
// lists have elements left.
func mergeCountInto(dst AdjList, counts []int, lists []AdjList, k int, s *Scratch) (AdjList, []int) {
	h := s.heap[:0]
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, listCursor{head: l[0], rest: l[1:]})
		}
	}
	s.heap = h[:0] // keep the grown buffer
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) >= k {
		cur, count := h[0].head, 0
		for len(h) > 0 && h[0].head == cur {
			count++
			// Skip duplicates of cur within this list: one list contributes
			// at most one count per vertex.
			rest := h[0].rest
			for len(rest) > 0 && rest[0] == cur {
				rest = rest[1:]
			}
			if len(rest) > 0 {
				h[0] = listCursor{head: rest[0], rest: rest[1:]}
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 1 {
				siftDown(h, 0)
			}
		}
		if count >= k {
			dst = append(dst, cur)
			counts = append(counts, count)
		}
	}
	return dst, counts
}

// ThresholdIntersectCount is the Go-map counting baseline of E8: no
// sortedness assumed, output sorted at the end. Like the kernel, it counts
// distinct lists per vertex, not occurrences.
func ThresholdIntersectCount(lists []AdjList, k int) AdjList {
	if k <= 0 || len(lists) < k {
		return nil
	}
	type tally struct {
		count    int
		lastList int // 1-based index of the last list that counted v
	}
	counts := make(map[VertexID]tally)
	for li, l := range lists {
		for _, v := range l {
			t := counts[v]
			if t.lastList == li+1 {
				continue // duplicate within this list
			}
			counts[v] = tally{count: t.count + 1, lastList: li + 1}
		}
	}
	var out AdjList
	for v, t := range counts {
		if t.count >= k {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
