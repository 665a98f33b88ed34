package main

import (
	"fmt"
	"log"
	"time"

	"motifstream/internal/cluster"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

// runF1 replays the paper's Figure 1 walkthrough: with k=2, creating edge
// B2→C2 must recommend C2 to exactly A2.
func runF1(runConfig) {
	const (
		a1 = graph.VertexID(iota + 1)
		a2
		a3
		b1
		b2
		c2
	)
	static := []graph.Edge{
		{Src: a1, Dst: b1}, {Src: a2, Dst: b1},
		{Src: a2, Dst: b2}, {Src: a3, Dst: b2},
	}
	builder := &statstore.Builder{}
	s := statstore.New(builder.Build(static))
	d := dynstore.New(dynstore.Options{Retention: 10 * time.Minute})
	ctx := &motif.Context{S: s, D: d}
	prog := motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute})

	t0 := int64(1_000_000)
	e1 := graph.Edge{Src: b1, Dst: c2, Type: graph.Follow, TS: t0}
	e2 := graph.Edge{Src: b2, Dst: c2, Type: graph.Follow, TS: t0 + 120_000}

	d.Insert(e1)
	first := prog.OnEdge(ctx, e1)
	d.Insert(e2)
	second := prog.OnEdge(ctx, e2)

	tb := newTable("step", "paper says", "measured")
	tb.addf("B1→C2 arrives|no motif yet|%d candidates", len(first))
	got := "none"
	if len(second) == 1 && second[0].User == a2 && second[0].Item == c2 {
		got = fmt.Sprintf("push C2 to A2 (via %d supporting B's)", len(second[0].Via))
	}
	tb.addf("B2→C2 arrives|push C2 to A2|%s", got)
	tb.print()
	if len(first) != 0 || len(second) != 1 || second[0].User != a2 || second[0].Item != c2 {
		log.Fatalf("F1 FAILED: first=%v second=%v", first, second)
	}
	fmt.Println("  shape holds: the closing edge recommends C2 to exactly A2 ✔")
}

// runE1 measures sustained ingestion throughput as partitions scale. The
// paper's design target is 10^4 edge insertions per second; every
// partition consumes the full stream, so added partitions add detection
// parallelism at the cost of fan-out work.
func runE1(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	static := cachedGraph(users, avgFollows)
	stream := cachedStream(users, events)
	parts := []int{1, 2, 4, 8, 16, 32}
	if c.quick {
		parts = []int{1, 4, 16}
	}

	tb := newTable("partitions", "events/s", "vs target 10^4/s", "wall")
	for _, p := range parts {
		_, wall := runDiamond(static, stream, func(c *cluster.Config) { c.Partitions = p })
		eps := float64(len(stream)) / wall.Seconds()
		tb.addf("%d|%.0f|%.1fx|%v", p, eps, eps/1e4, wall.Round(time.Millisecond))
	}
	tb.print()
	fmt.Println("  expected shape: comfortably above 10^4/s; throughput degrades gently")
	fmt.Println("  with partition count because each partition ingests the full stream.")
}

// runE2 reproduces the latency split: "median 7s, p99 15s ... nearly all
// the latency comes from event propagation delays in various message
// queues; the actual graph queries take only a few milliseconds."
func runE2(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	if !c.quick {
		events = 100_000 // latency shape converges quickly
	}
	static := cachedGraph(users, avgFollows)
	stream := cachedStream(users, events)

	reg := metrics.NewRegistry()
	clu, _ := runDiamond(static, stream, func(c *cluster.Config) {
		c.HopDelay = cluster.LognormalFromQuantiles(3500*time.Millisecond, 7500*time.Millisecond)
		c.Metrics, c.Seed = reg, 1
	})

	e2e := clu.Stats().E2ELatency
	query := reg.Histogram("engine.query_latency").Snapshot()

	tb := newTable("metric", "paper", "measured")
	tb.addf("end-to-end median|~7s|%v", e2e.P50.Round(100*time.Millisecond))
	tb.addf("end-to-end p99|~15s|%v", e2e.P99.Round(100*time.Millisecond))
	tb.addf("graph query p50|few ms|%v", query.P50.Round(10*time.Microsecond))
	tb.addf("graph query p99|few ms|%v", query.P99.Round(10*time.Microsecond))
	tb.print()
	frac := 1 - query.P50.Seconds()/e2e.P50.Seconds()
	fmt.Printf("  queue propagation accounts for %.3f%% of median end-to-end latency\n", 100*frac)
	fmt.Println("  expected shape: seconds-scale e2e dominated by queue hops; graph work stays sub-ms..ms.")
}
