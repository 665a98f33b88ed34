package graph

import (
	"errors"
	"slices"
)

// CSR is a compressed-sparse-row immutable directed graph. The offline
// pipeline that builds the S store emits a CSR of the A→B follow edges; its
// compactness is what makes "all data structures held in main memory"
// (paper §2) feasible.
type CSR struct {
	offsets []uint64   // len = maxVertex+2; neighbors of v are targets[offsets[v]:offsets[v+1]]
	targets []VertexID // sorted within each row
	edges   uint64
}

// ErrVertexRange reports a vertex outside the CSR's ID space.
var ErrVertexRange = errors.New("graph: vertex id out of range")

// BuildCSR constructs a CSR from an edge list. Vertex IDs are used directly
// as row indices, so IDs should be reasonably dense; the workload generator
// guarantees this. Duplicate edges are removed.
func BuildCSR(edges []Edge) *CSR {
	var maxV VertexID
	for _, e := range edges {
		if e.Src > maxV {
			maxV = e.Src
		}
		if e.Dst > maxV {
			maxV = e.Dst
		}
	}
	n := uint64(maxV) + 1
	if len(edges) == 0 {
		n = 0
	}
	counts := make([]uint64, n+1)
	for _, e := range edges {
		counts[uint64(e.Src)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	offsets := counts
	targets := make([]VertexID, len(edges))
	fill := make([]uint64, n)
	for _, e := range edges {
		s := uint64(e.Src)
		targets[offsets[s]+fill[s]] = e.Dst
		fill[s]++
	}
	// Sort and dedup each row.
	c := &CSR{offsets: offsets, targets: targets}
	var w uint64
	newOffsets := make([]uint64, len(offsets))
	for v := uint64(0); v < n; v++ {
		row := targets[offsets[v]:offsets[v+1]]
		slices.Sort(row)
		newOffsets[v] = w
		for i := range row {
			if i > 0 && row[i] == row[i-1] {
				continue
			}
			targets[w] = row[i]
			w++
		}
	}
	if n > 0 {
		newOffsets[n] = w
	}
	c.offsets = newOffsets
	c.targets = targets[:w]
	c.edges = w
	return c
}

// NumVertices returns the size of the ID space (max vertex + 1).
func (c *CSR) NumVertices() int {
	if len(c.offsets) == 0 {
		return 0
	}
	return len(c.offsets) - 1
}

// NumEdges returns the deduplicated edge count.
func (c *CSR) NumEdges() uint64 { return c.edges }

// Neighbors returns the sorted out-neighbors of v. The returned slice
// aliases internal storage and must not be modified.
func (c *CSR) Neighbors(v VertexID) AdjList {
	if int(v) >= c.NumVertices() {
		return nil
	}
	return AdjList(c.targets[c.offsets[v]:c.offsets[v+1]])
}

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v VertexID) int { return len(c.Neighbors(v)) }

// MemoryBytes returns the approximate resident size of the CSR.
func (c *CSR) MemoryBytes() uint64 {
	return uint64(len(c.offsets))*8 + uint64(len(c.targets))*8
}
