package graph

import (
	"math/rand"
	"testing"
)

func benchList(seed int64, n, space int) AdjList {
	r := rand.New(rand.NewSource(seed))
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = VertexID(r.Intn(space))
	}
	return NewAdjList(ids)
}

func BenchmarkIntersectMergeBalanced(b *testing.B) {
	x := benchList(1, 10_000, 100_000)
	y := benchList(2, 10_000, 100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IntersectMerge(x, y)
	}
}

func BenchmarkIntersectGallopSkewed(b *testing.B) {
	x := benchList(1, 100, 1_000_000)
	y := benchList(2, 100_000, 1_000_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IntersectGallop(x, y)
	}
}

func BenchmarkIntersectAutoSkewed(b *testing.B) {
	x := benchList(1, 100, 1_000_000)
	y := benchList(2, 100_000, 1_000_000)
	for i := 0; i < b.N; i++ {
		IntersectInto(nil, x, y)
	}
}

// thresholdShapes are the list shapes the threshold chooser is justified on
// (scanCountMaxElems cites these rows): the deployed one (what benchmark/'s
// trace records per call on steady: 26 lists of mean 15 elements over a
// partition's 5 000 users), long balanced lists, one celebrity list among
// short ones, and the union expandFrontier takes over a few survivors'
// follower lists.
var thresholdShapes = []struct {
	name  string
	k     int
	lists func() []AdjList
}{
	{"deployed", 3, func() []AdjList {
		r := rand.New(rand.NewSource(1))
		lists := make([]AdjList, 26)
		for i := range lists {
			lists[i] = benchList(int64(i), 5+r.Intn(21), 5_000)
		}
		return lists
	}},
	{"balanced-long", 3, func() []AdjList {
		lists := make([]AdjList, 16)
		for i := range lists {
			lists[i] = benchList(int64(i), 2_000, 100_000)
		}
		return lists
	}},
	{"skewed-long", 3, func() []AdjList {
		lists := make([]AdjList, 16)
		lists[0] = benchList(0, 50_000, 1_000_000)
		for i := 1; i < len(lists); i++ {
			lists[i] = benchList(int64(i), 15, 1_000_000)
		}
		return lists
	}},
	{"union", 1, func() []AdjList {
		lists := make([]AdjList, 8)
		for i := range lists {
			lists[i] = benchList(int64(i), 30, 5_000)
		}
		return lists
	}},
}

// BenchmarkThresholdIntersect times each strategy forced, the interface-heap
// kernel they replaced, and the chooser, on every shape.
func BenchmarkThresholdIntersect(b *testing.B) {
	kernels := []struct {
		name string
		fn   func(AdjList, []int, []AdjList, int, *Scratch) (AdjList, []int)
	}{
		{"scancount", scanCountInto},
		{"merge", mergeCountInto},
		{"ifaceheap", ifaceHeapCountInto},
		{"chooser", ThresholdCountsInto},
	}
	for _, shape := range thresholdShapes {
		lists := shape.lists()
		for _, kn := range kernels {
			b.Run(shape.name+"/"+kn.name, func(b *testing.B) {
				var s Scratch
				var dst AdjList
				var cnt []int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst, cnt = kn.fn(dst[:0], cnt[:0], lists, shape.k, &s)
				}
			})
		}
	}
}

// BenchmarkPackRow times a lookup in a 10 000-key table, a tenth of them
// misses.
func BenchmarkPackRow(b *testing.B) {
	var pairs []Pair
	for k := VertexID(0); k < 10_000; k++ {
		for v := VertexID(0); v < 20; v++ {
			pairs = append(pairs, Pair{Key: k, Val: v})
		}
	}
	p := Pack(pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Row(VertexID(i % 11_000))
	}
}

func BenchmarkAdjListContains(b *testing.B) {
	l := benchList(1, 10_000, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Contains(VertexID(i % 1_000_000))
	}
}
