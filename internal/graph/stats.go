package graph

import "sort"

// DegreeStats summarizes a degree distribution; the workload generator uses
// it to verify the synthetic graph reproduces the heavy-tailed in-degree
// shape of the Twitter follow graph (Myers et al., WWW 2014, paper ref [7]).
type DegreeStats struct {
	N    int // vertices with degree > 0
	Min  int
	Max  int
	Mean float64
	P50  int
	P90  int
	P99  int
	Gini float64 // inequality of the distribution; heavy tails push this toward 1
}

// ComputeDegreeStats summarizes the given per-vertex degrees, ignoring
// zero-degree vertices.
func ComputeDegreeStats(degrees []int) DegreeStats {
	nz := make([]int, 0, len(degrees))
	for _, d := range degrees {
		if d > 0 {
			nz = append(nz, d)
		}
	}
	if len(nz) == 0 {
		return DegreeStats{}
	}
	sort.Ints(nz)
	var sum float64
	for _, d := range nz {
		sum += float64(d)
	}
	s := DegreeStats{
		N:    len(nz),
		Min:  nz[0],
		Max:  nz[len(nz)-1],
		Mean: sum / float64(len(nz)),
		P50:  quantileInt(nz, 0.50),
		P90:  quantileInt(nz, 0.90),
		P99:  quantileInt(nz, 0.99),
	}
	// Gini over the sorted values: (2*sum_i i*x_i)/(n*sum x) - (n+1)/n.
	var weighted float64
	for i, d := range nz {
		weighted += float64(i+1) * float64(d)
	}
	n := float64(len(nz))
	s.Gini = 2*weighted/(n*sum) - (n+1)/n
	return s
}

// InDegrees computes the in-degree of every vertex in the edge set, indexed
// by vertex ID.
func InDegrees(edges []Edge) []int {
	var maxV VertexID
	for _, e := range edges {
		if e.Dst > maxV {
			maxV = e.Dst
		}
		if e.Src > maxV {
			maxV = e.Src
		}
	}
	if len(edges) == 0 {
		return nil
	}
	deg := make([]int, uint64(maxV)+1)
	for _, e := range edges {
		deg[e.Dst]++
	}
	return deg
}

func quantileInt(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
