package graph

import (
	"slices"
	"sort"
)

// AdjList is a sorted, duplicate-free list of vertex IDs. The S data
// structure keeps follower lists in this form so that intersections can be
// computed with linear merges or galloping search (paper §2: "we can easily
// keep the A's sorted and thus intersections can be implemented efficiently
// using well-known algorithms").
type AdjList []VertexID

// NewAdjList sorts and deduplicates ids into a valid AdjList. The input
// slice is not modified.
func NewAdjList(ids []VertexID) AdjList {
	if len(ids) == 0 {
		return nil
	}
	out := make(AdjList, len(ids))
	copy(out, ids)
	slices.Sort(out)
	return out.dedupInPlace()
}

// dedupInPlace removes adjacent duplicates from an already-sorted list.
func (l AdjList) dedupInPlace() AdjList {
	if len(l) < 2 {
		return l
	}
	w := 1
	for i := 1; i < len(l); i++ {
		if l[i] != l[w-1] {
			l[w] = l[i]
			w++
		}
	}
	return l[:w]
}

// Contains reports whether id is present, using binary search.
func (l AdjList) Contains(id VertexID) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= id })
	return i < len(l) && l[i] == id
}

// IsSorted reports whether the list satisfies the AdjList invariant
// (strictly increasing). Used by tests and validation paths.
func (l AdjList) IsSorted() bool {
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (l AdjList) Clone() AdjList {
	if l == nil {
		return nil
	}
	out := make(AdjList, len(l))
	copy(out, l)
	return out
}
