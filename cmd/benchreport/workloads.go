package main

import (
	"log"
	"sync"
	"time"

	"motifstream/internal/cluster"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/workload"
)

// runDiamond runs the deployment E1, E2 and E9 measure: four partitions of
// the k=3 diamond (10-minute window, fanout 64) over static capped at 200
// influencers, D retaining 10 minutes, with tune setting the rest. It
// publishes stream, stops the cluster and returns it with the wall time
// from Start through Stop.
func runDiamond(static, stream []graph.Edge, tune func(*cluster.Config)) (*cluster.Cluster, time.Duration) {
	cfg := cluster.Config{
		Partitions:     4,
		StaticEdges:    static,
		MaxInfluencers: 200,
		Dynamic:        dynstore.Options{Retention: 10 * time.Minute},
		NewPrograms: func() []motif.Program {
			return []motif.Program{motif.NewDiamond(motif.DiamondConfig{K: 3, Window: 10 * time.Minute, MaxFanout: 64})}
		},
	}
	tune(&cfg)
	clu, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	clu.Start()
	start := time.Now()
	for _, e := range stream {
		if err := clu.Publish(e); err != nil {
			log.Fatal(err)
		}
	}
	clu.Stop()
	return clu, time.Since(start)
}

// workloadSizes returns the standard (or quick) workload dimensions shared
// by the experiments so results are comparable across tables.
func workloadSizes(quick bool) (users, avgFollows, events int) {
	if quick {
		return 5_000, 20, 50_000
	}
	return 20_000, 30, 200_000
}

var (
	wlMu    sync.Mutex
	wlCache = map[[2]int64][]graph.Edge{}
)

// cachedGraph memoizes follow-graph generation across experiments (the
// generators are deterministic, so sharing is safe).
func cachedGraph(users, avgFollows int) []graph.Edge {
	key := [2]int64{1, int64(users)<<20 | int64(avgFollows)}
	wlMu.Lock()
	defer wlMu.Unlock()
	if e, ok := wlCache[key]; ok {
		return e
	}
	e := workload.GenFollowGraph(workload.GraphConfig{
		Users: users, AvgFollows: avgFollows, ZipfS: 1.35, Seed: 1,
	})
	wlCache[key] = e
	return e
}

// cachedStream memoizes event-stream generation at the paper's design
// rate of 10^4 events/s. At that rate a laptop-scale stream spans only
// seconds, so it suits throughput experiments (E1, E2) where wall-clock
// cost matters, not stream-time structure.
func cachedStream(users, events int) []graph.Edge {
	key := [2]int64{2, int64(users)<<24 | int64(events)}
	wlMu.Lock()
	defer wlMu.Unlock()
	if e, ok := wlCache[key]; ok {
		return e
	}
	e := workload.GenEventStream(workload.StreamConfig{
		Users: users, Events: events, Rate: 10_000,
		BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: 10 * time.Minute,
		ContentFraction: 0.25, ZipfS: 1.35, Seed: 7,
	})
	wlCache[key] = e
	return e
}

// cachedSlowStream memoizes a stream stretched over spanSeconds of stream
// time. Window-sensitive experiments (E4 polling, E5 retention, E6 τ
// sweep) need the stream span to exceed the windows under study, or every
// retention setting trivially retains everything.
func cachedSlowStream(users, events, spanSeconds int) []graph.Edge {
	key := [2]int64{3, int64(users)<<40 | int64(events)<<16 | int64(spanSeconds)}
	wlMu.Lock()
	defer wlMu.Unlock()
	if e, ok := wlCache[key]; ok {
		return e
	}
	e := workload.GenEventStream(workload.StreamConfig{
		Users: users, Events: events,
		Rate:          float64(events) / float64(spanSeconds),
		BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: 10 * time.Minute,
		ContentFraction: 0.25, ZipfS: 1.35, Seed: 7,
	})
	wlCache[key] = e
	return e
}
