package dynstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"motifstream/internal/graph"
)

func benchEdges(n int) []graph.Edge {
	r := rand.New(rand.NewSource(1))
	out := make([]graph.Edge, n)
	ts := int64(0)
	for i := range out {
		ts += int64(r.Intn(3))
		out[i] = graph.Edge{
			Src: graph.VertexID(r.Intn(10_000)),
			Dst: graph.VertexID(r.Intn(2_000)), // concentrated targets
			TS:  ts,
		}
	}
	return out
}

// BenchmarkInsert is D's insert path. "concentrated" spreads a random stream
// over 2 000 targets. "fresh" is the quiet workload's shape — 95 % content
// events, nearly every one onto a fresh target — with the engine's minute
// sweeps and a cut per 50 s of stream time, both of which it counts: they
// are what bound the table, the arena and the dirty log.
func BenchmarkInsert(b *testing.B) {
	b.Run("concentrated", func(b *testing.B) {
		edges := benchEdges(100_000)
		s := New(Options{Retention: time.Minute, MaxPerTarget: 1024})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Insert(edges[i%len(edges)])
		}
	})
	b.Run("fresh", func(b *testing.B) {
		stream := quietStream(4 * 24_000)
		lap := stream[len(stream)-1].TS - stream[0].TS + 1
		s := New(Options{Retention: time.Minute, MaxPerTarget: 1024})
		lastSweep, lastCut := stream[0].TS, stream[0].TS
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := stream[i%len(stream)]
			e.TS += int64(i/len(stream)) * lap
			s.Insert(e)
			if e.TS-lastSweep >= 60_000 {
				s.Sweep(e.TS)
				lastSweep = e.TS
			}
			if e.TS-lastCut >= 50_000 {
				s.CaptureDelta()
				lastCut = e.TS
			}
		}
	})
}

// BenchmarkInsertShards is the sharding ablation: contention at 1 shard
// vs D's 64 under parallel writers.
func BenchmarkInsertShards(b *testing.B) {
	edges := benchEdges(100_000)
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newStore(Options{Retention: time.Minute, MaxPerTarget: 1024}, shards)
			b.RunParallel(func(pb *testing.PB) {
				i := rand.Int()
				for pb.Next() {
					s.Insert(edges[i%len(edges)])
					i++
				}
			})
		})
	}
}

func BenchmarkRecentLimit(b *testing.B) {
	s := New(Options{MaxPerTarget: 2048})
	for i := 0; i < 2_000; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i % 500), Dst: 7, TS: int64(i)})
	}
	for _, limit := range []int{0, 64} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.RecentLimitInto(nil, 7, 0, limit)
			}
		})
	}
}

// BenchmarkSnapshotEncode measures the cost of cutting one replica
// checkpoint's D payload — the stop-the-world window a replica pays per
// checkpoint interval.
func BenchmarkSnapshotEncode(b *testing.B) {
	edges := benchEdges(100_000)
	s := New(Options{Retention: time.Hour, MaxPerTarget: 1024})
	for _, e := range edges {
		s.Insert(e)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		buf.Write(s.AppendSnapshot(nil))
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkSnapshotDecode measures the restore half of recovery: how fast
// a rejoining replica rebuilds D from its checkpoint before replay starts.
func BenchmarkSnapshotDecode(b *testing.B) {
	edges := benchEdges(100_000)
	s := New(Options{Retention: time.Hour, MaxPerTarget: 1024})
	for _, e := range edges {
		s.Insert(e)
	}
	var buf bytes.Buffer
	buf.Write(s.AppendSnapshot(nil))
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored := New(Options{Retention: time.Hour, MaxPerTarget: 1024})
		if err := restore(restored, buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep(b *testing.B) {
	edges := benchEdges(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Options{Retention: time.Millisecond})
		for _, e := range edges {
			s.Insert(e)
		}
		b.StartTimer()
		s.Sweep(edges[len(edges)-1].TS + int64(time.Hour/time.Millisecond))
	}
}
