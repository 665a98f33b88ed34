// Benchmarks regenerating the reproduction's experiment index (the table
// in cmd/benchreport/main.go). Each BenchmarkE* target corresponds to one
// quantitative claim in the paper's §2; cmd/benchreport runs the richer
// table-producing versions, while these integrate with `go test -bench` as
// a smoke run. Performance claims go through benchmark/
// (docs/BENCHMARKS.md).
package motifstream_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"motifstream"
	"motifstream/internal/baseline"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/statstore"
	"motifstream/internal/workload"
)

// benchGraph/benchStream are shared across benchmarks; generation is
// deterministic so reuse is sound.
var (
	benchStaticEdges []graph.Edge
	benchStream      []graph.Edge
)

func benchWorkload(b *testing.B) ([]graph.Edge, []graph.Edge) {
	b.Helper()
	if benchStaticEdges == nil {
		benchStaticEdges = workload.GenFollowGraph(workload.GraphConfig{
			Users: 10_000, AvgFollows: 25, ZipfS: 1.35, Seed: 1,
		})
		benchStream = workload.GenEventStream(workload.StreamConfig{
			Users: 10_000, Events: 100_000, Rate: 10_000,
			BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: 10 * time.Minute,
			ContentFraction: 0.25, ZipfS: 1.35, Seed: 7,
		})
	}
	return benchStaticEdges, benchStream
}

func newBenchEngine(b *testing.B, static []graph.Edge, k int, window time.Duration) (*motif.Context, motif.Program) {
	b.Helper()
	builder := &statstore.Builder{MaxInfluencers: 200}
	s := statstore.New(builder.Build(static))
	d := dynstore.New(dynstore.Options{Retention: window, MaxPerTarget: 1024})
	return &motif.Context{S: s, D: d},
		motif.NewDiamond(motif.DiamondConfig{K: k, Window: window, MaxFanout: 64})
}

// BenchmarkE1IngestSingleNode measures raw per-event detection cost: the
// paper's design target is 10^4 edge insertions/second, i.e. a budget of
// 100µs/event; a healthy result here is a few µs.
func BenchmarkE1IngestSingleNode(b *testing.B) {
	static, stream := benchWorkload(b)
	ctx, prog := newBenchEngine(b, static, 3, 10*time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := stream[i%len(stream)]
		ctx.D.Insert(e)
		prog.OnEdge(ctx, e)
	}
	b.ReportMetric(float64(time.Second.Nanoseconds())/float64(b.Elapsed().Nanoseconds()/int64(b.N)), "events/s")
}

// BenchmarkE1IngestCluster sweeps partition counts, every partition
// ingesting the full stream (the paper's fan-out design).
func BenchmarkE1IngestCluster(b *testing.B) {
	static, stream := benchWorkload(b)
	for _, partitions := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("partitions=%d", partitions), func(b *testing.B) {
			clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
				Partitions: partitions, K: 3, Window: 10 * time.Minute,
				MaxInfluencers: 200, MaxFanout: 64, DisableSleepHours: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := clu.Publish(stream[i%len(stream)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			clu.Stop()
		})
	}
}

// BenchmarkE2GraphQuery isolates the graph-query half of the latency
// split: D lookup + S lookups + threshold intersection, no queues. The
// paper reports "a few milliseconds" on production hardware; the shape
// requirement is staying orders of magnitude below the 7s queue delay.
func BenchmarkE2GraphQuery(b *testing.B) {
	static, stream := benchWorkload(b)
	ctx, prog := newBenchEngine(b, static, 3, 10*time.Minute)
	// Pre-load D with the full stream so queries see realistic fanout.
	for _, e := range stream {
		ctx.D.Insert(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.OnEdge(ctx, stream[i%len(stream)])
	}
}

// BenchmarkE4Polling measures one full poll pass over every user's
// network — the per-tick cost that makes the polling design unacceptable
// at low periods.
func BenchmarkE4Polling(b *testing.B) {
	static, stream := benchWorkload(b)
	rec := baseline.NewPollingRecommender(baseline.PollingConfig{
		Period: time.Minute, K: 3, Window: 10 * time.Minute,
	}, static)
	for _, e := range stream[:50_000] {
		rec.Ingest(e)
	}
	last := stream[50_000-1].TS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Poll(last)
		b.StopTimer()
		// Poll consumes the pending set; refill so every iteration does
		// comparable work.
		for _, e := range stream[:5_000] {
			rec.Ingest(e)
		}
		b.StartTimer()
	}
}

// BenchmarkE4TwoHopBuild measures materializing the rejected two-hop
// design at laptop scale (the Twitter-scale number comes from the model).
func BenchmarkE4TwoHopBuild(b *testing.B) {
	static, _ := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := baseline.BuildTwoHop(baseline.TwoHopConfig{FPRate: 0.01}, static)
		b.ReportMetric(float64(th.MemoryBytes())/(1<<20), "MiB")
	}
}

// BenchmarkE5DynstoreInsert measures D-store ingestion with pruning, the
// operation every partition performs on every firehose event.
func BenchmarkE5DynstoreInsert(b *testing.B) {
	_, stream := benchWorkload(b)
	for _, retention := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		b.Run(retention.String(), func(b *testing.B) {
			d := dynstore.New(dynstore.Options{Retention: retention})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Insert(stream[i%len(stream)])
			}
			b.StopTimer()
			st := d.Stats()
			b.ReportMetric(float64(st.Bytes)/(1<<20), "residentMiB")
		})
	}
}

// BenchmarkE6Params sweeps the paper's tunables k and τ; per-event cost
// and candidate volume both fall as k rises.
func BenchmarkE6Params(b *testing.B) {
	static, stream := benchWorkload(b)
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ctx, prog := newBenchEngine(b, static, k, 10*time.Minute)
			cands := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := stream[i%len(stream)]
				ctx.D.Insert(e)
				cands += len(prog.OnEdge(ctx, e))
			}
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/event")
		})
	}
}

// BenchmarkE7InfluencerCap measures S build time and memory across caps.
func BenchmarkE7InfluencerCap(b *testing.B) {
	static, _ := benchWorkload(b)
	for _, cap := range []int{10, 50, 0} {
		name := fmt.Sprintf("cap=%d", cap)
		if cap == 0 {
			name = "cap=unlimited"
		}
		b.Run(name, func(b *testing.B) {
			var snap *statstore.Snapshot
			for i := 0; i < b.N; i++ {
				builder := &statstore.Builder{MaxInfluencers: cap}
				snap = builder.Build(static)
			}
			b.ReportMetric(float64(snap.MemoryBytes())/(1<<20), "MiB")
		})
	}
}

// BenchmarkE8Intersect is the intersection-kernel ablation (paper §2:
// "intersections can be implemented efficiently using well-known
// algorithms").
func BenchmarkE8Intersect(b *testing.B) {
	small := graph.NewAdjList(seq(0, 1_000, 7))
	large := graph.NewAdjList(seq(0, 100_000, 3))
	even := graph.NewAdjList(seq(0, 10_000, 5))
	even2 := graph.NewAdjList(seq(2, 10_000, 5))
	b.Run("merge/balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.IntersectMerge(even, even2)
		}
	})
	b.Run("gallop/balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.IntersectGallop(even, even2)
		}
	})
	b.Run("merge/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.IntersectMerge(small, large)
		}
	})
	b.Run("gallop/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.IntersectGallop(small, large)
		}
	})

	lists := make([]graph.AdjList, 16)
	for i := range lists {
		lists[i] = graph.NewAdjList(seq(i, 2_000, 11))
	}
	b.Run("threshold/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.ThresholdIntersect(lists, 3)
		}
	})
	b.Run("threshold/count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.ThresholdIntersectCount(lists, 3)
		}
	})
}

// BenchmarkE9BrokerReads measures read throughput through the broker as
// replicas scale (the paper: replication increases query throughput).
func BenchmarkE9BrokerReads(b *testing.B) {
	static, stream := benchWorkload(b)
	for _, replicas := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
				Partitions: 2, Replicas: replicas, K: 3,
				Window: 10 * time.Minute, MaxFanout: 64, DisableSleepHours: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range stream[:20_000] {
				clu.Publish(e)
			}
			clu.Stop() // reads keep working after stream shutdown
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					clu.RecommendationsFor(motifstream.VertexID(i % 10_000))
					i++
				}
			})
		})
	}
}

// BenchmarkE11RecoveryReplay measures the cost of replica crash recovery:
// a replica of a 2-partition, 2-replica cluster is killed after ingesting
// the stream, then restored from its durable checkpoint and caught up by
// replaying the retained firehose. The reported events/s is catch-up
// replay throughput — how fast a rejoining detection server chews through
// the log — which bounds recovery time after real outages.
func BenchmarkE11RecoveryReplay(b *testing.B) {
	static, stream := benchWorkload(b)
	const events = 50_000
	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions: 2, Replicas: 2, K: 3,
		Window: 10 * time.Minute, MaxFanout: 64, DisableSleepHours: true,
		CheckpointDir:      b.TempDir(),
		CheckpointInterval: time.Minute, // stream time
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range stream[:events] {
		if err := clu.Publish(e); err != nil {
			b.Fatal(err)
		}
	}
	defer clu.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := clu.KillReplica(0, 1); err != nil {
			b.Fatal(err)
		}
		if err := clu.RestoreReplica(0, 1); err != nil {
			b.Fatal(err)
		}
		if err := clu.AwaitReplicaLive(0, 1, 5*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(events)/perOp, "replayed-events/s")
}

// BenchmarkE2EDetectionLatency measures real wall-clock detection latency
// through the full cluster: event publish → candidate batch reaching the
// delivery tier, with no simulated queue delay. This is the process's own
// queueing and scheduling cost — what benchmark/ reports, at a stated
// offered load, as cluster.detect_latency_p50_ms — and complements E2,
// which measures only the graph-query half.
func BenchmarkE2EDetectionLatency(b *testing.B) {
	static, stream := benchWorkload(b)
	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions: 4, K: 3, Window: 10 * time.Minute,
		MaxInfluencers: 200, MaxFanout: 64, DisableSleepHours: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := clu.Publish(stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	clu.Stop() // drains consumers; every published event has been detected
	st := clu.Stats()
	b.ReportMetric(float64(st.DetectLatencyP50.Nanoseconds()), "detect-p50-ns")
	b.ReportMetric(float64(st.DetectLatencyP99.Nanoseconds()), "detect-p99-ns")
}

// BenchmarkCheckpointPause measures the apply-loop pause of a checkpoint
// cut — the synchronous capture only; encode and fsync run on the async
// writer. "full" is what a full cut would cost now (the live streaming
// encode of the entire partition state), "delta" the incremental
// pipeline's (capture only what a checkpoint interval's worth of traffic
// dirtied). The acceptance bar is delta ≥5x cheaper; in practice it is
// orders of magnitude.
func BenchmarkCheckpointPause(b *testing.B) {
	static, stream := benchWorkload(b)
	newPart := func(b *testing.B) *partition.Partition {
		p, err := partition.New(partition.Config{
			ID:          0,
			StaticEdges: static,
			Partitioner: partition.NewHashPartitioner(1),
			Dynamic:     dynstore.Options{Retention: time.Hour, MaxPerTarget: 1024},
			Programs: []motif.Program{
				motif.NewDiamond(motif.DiamondConfig{K: 3, Window: 10 * time.Minute, MaxFanout: 64}),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range stream {
			p.Apply(e)
		}
		return p
	}
	b.Run("full", func(b *testing.B) {
		p := newPart(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		p := newPart(b)
		p.CaptureDelta() // drain the setup's dirt so cuts measure steady state
		j := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Dirty a checkpoint interval's worth of traffic between cuts.
			for k := 0; k < 64; k++ {
				p.Apply(stream[j%len(stream)])
				j++
			}
			b.StartTimer()
			p.CaptureDelta()
		}
	})
}

// BenchmarkF1Figure1 measures the minimal end-to-end detection: the
// Figure 1 motif completion itself.
func BenchmarkF1Figure1(b *testing.B) {
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10},
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11},
	}
	builder := &statstore.Builder{}
	s := statstore.New(builder.Build(static))
	d := dynstore.New(dynstore.Options{Retention: time.Hour})
	ctx := &motif.Context{S: s, D: d}
	prog := motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute})
	t0 := int64(1_000_000)
	e1 := graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0}
	d.Insert(e1)
	prog.OnEdge(ctx, e1)
	e2 := graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1}
	d.Insert(e2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := prog.OnEdge(ctx, e2); len(got) != 1 {
			b.Fatalf("detection broke: %v", got)
		}
	}
}

func seq(start, n, step int) []graph.VertexID {
	out := make([]graph.VertexID, n)
	for i := range out {
		out[i] = graph.VertexID(start + i*step)
	}
	return out
}
