package motifstream_test

import (
	"testing"
	"time"

	"motifstream"
	"motifstream/internal/cluster"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/motif"
)

// TestIntegrationSyntheticWorkload replays a generated workload through
// the single-node System and checks the system-level invariants that the
// experiments rely on: detection happens, every candidate is well-formed,
// and graph queries stay far below the paper's "few milliseconds".
func TestIntegrationSyntheticWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("workload replay")
	}
	gcfg := motifstream.GraphConfig{Users: 3_000, AvgFollows: 20, ZipfS: 1.35, Seed: 1}
	static := motifstream.GenFollowGraph(gcfg)
	sys, err := motifstream.New(static, motifstream.Options{
		K: 3, Window: 10 * time.Minute, MaxInfluencers: 100,
		MaxFanout: 16, SuppressKnown: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	follows := map[[2]motifstream.VertexID]bool{}
	followsOf := map[motifstream.VertexID]map[motifstream.VertexID]bool{}
	for _, e := range static {
		follows[[2]motifstream.VertexID{e.Src, e.Dst}] = true
		m := followsOf[e.Src]
		if m == nil {
			m = map[motifstream.VertexID]bool{}
			followsOf[e.Src] = m
		}
		m[e.Dst] = true
	}

	events := motifstream.GenEventStream(motifstream.StreamConfig{
		Users: gcfg.Users, Events: 10_000, Rate: 100, // ~100s span
		BurstFraction: 0.5, BurstMeanSize: 15, BurstWindow: 5 * time.Minute,
		ZipfS: 1.35, Seed: 7,
	})

	total := 0
	for _, e := range events {
		for _, c := range sys.Apply(e) {
			total++
			if c.User == c.Item {
				t.Fatal("self-recommendation leaked")
			}
			if follows[[2]motifstream.VertexID{c.User, c.Item}] {
				t.Fatalf("user %d already follows recommended %d", c.User, c.Item)
			}
			if len(c.Via) < 3 {
				t.Fatalf("candidate with %d supporters at k=3", len(c.Via))
			}
			// Every supporter must actually be followed by the user.
			for _, b := range c.Via {
				if !followsOf[c.User][b] {
					t.Fatalf("supporter %d not followed by user %d", b, c.User)
				}
			}
			if c.Trigger.Dst != c.Item {
				t.Fatal("trigger edge does not point at the item")
			}
		}
	}
	if total == 0 {
		t.Fatal("bursty workload produced no recommendations; generator or detector broken")
	}

	st := sys.Stats()
	if st.Events != 10_000 {
		t.Fatalf("Events = %d", st.Events)
	}
	// "The actual graph queries take only a few milliseconds" — at this
	// scale they must be far under 10ms even at p99.
	if st.QueryP99 > 10*time.Millisecond {
		t.Fatalf("graph query p99 = %v, want << 10ms", st.QueryP99)
	}
	t.Logf("integration: %d candidates from %d events; query p50=%v p99=%v",
		total, st.Events, st.QueryP50, st.QueryP99)
}

// TestIntegrationClusterMatchesSystem verifies the partitioned cluster
// delivers a superset-free, duplicate-free projection of the single-node
// candidates on the same workload (modulo the delivery funnel, which is
// disabled here via generous budgets).
func TestIntegrationClusterMatchesSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("workload replay")
	}
	gcfg := motifstream.GraphConfig{Users: 1_000, AvgFollows: 15, ZipfS: 1.35, Seed: 2}
	static := motifstream.GenFollowGraph(gcfg)
	events := motifstream.GenEventStream(motifstream.StreamConfig{
		Users: gcfg.Users, Events: 4_000, Rate: 50,
		BurstFraction: 0.5, BurstMeanSize: 10, BurstWindow: 5 * time.Minute,
		ZipfS: 1.35, Seed: 3,
	})

	// Single node.
	sys, err := motifstream.New(static, motifstream.Options{K: 2, Window: 5 * time.Minute, MaxFanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		user, item motifstream.VertexID
		ts         int64
	}
	ref := map[key]bool{}
	for _, e := range events {
		for _, c := range sys.Apply(e) {
			ref[key{c.User, c.Item, c.Trigger.TS}] = true
		}
	}

	// Cluster with the funnel opened wide (no dedup TTL pressure, huge
	// budget, no sleep suppression).
	got := map[key]bool{}
	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions:             8,
		K:                      2,
		Window:                 5 * time.Minute,
		MaxFanout:              16,
		DisableSleepHours:      true,
		MaxPushesPerUserPerDay: 1 << 30,
		DedupTTL:               time.Millisecond,
		OnNotify: func(n motifstream.Notification) {
			got[key{n.Candidate.User, n.Candidate.Item, n.Candidate.Trigger.TS}] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := clu.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	clu.Stop()

	if len(ref) == 0 {
		t.Fatal("vacuous: single node found nothing")
	}
	// Dedup with TTL 1ms still suppresses identical (user,item) pairs
	// re-triggered within a millisecond of stream time, so the cluster
	// may deliver slightly fewer; every delivery must exist in ref.
	for k := range got {
		if !ref[k] {
			t.Fatalf("cluster delivered %v not found by single node", k)
		}
	}
	if float64(len(got)) < 0.5*float64(len(ref)) {
		t.Fatalf("cluster delivered %d of %d reference candidates; too lossy", len(got), len(ref))
	}
	t.Logf("cluster delivered %d / %d reference candidates", len(got), len(ref))
}

// TestClusterFacadeAppliesInBatches publishes a burst into a one-partition,
// one-replica facade cluster: its apply loop drains the backlog in batches,
// so it counts fewer batches than events, and it delivers what the same
// stream delivers through a batch-of-one internal/cluster.
func TestClusterFacadeAppliesInBatches(t *testing.T) {
	static := motifstream.GenFollowGraph(motifstream.GraphConfig{Users: 1_000, AvgFollows: 15, ZipfS: 1.35, Seed: 2})
	events := motifstream.GenEventStream(motifstream.StreamConfig{
		Users: 1_000, Events: 5_000, Rate: 50,
		BurstFraction: 0.5, BurstMeanSize: 10, BurstWindow: 5 * time.Minute,
		ZipfS: 1.35, Seed: 3,
	})
	const window = 5 * time.Minute
	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions: 1, Replicas: 1, K: 2, Window: window, MaxFanout: 16,
		DisableSleepHours: true, MaxPushesPerUserPerDay: 1 << 30, DedupTTL: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := clu.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	clu.Stop()
	applied, batches := counter(t, clu, "engine.events"), counter(t, clu, "cluster.apply_batches")
	if applied != uint64(len(events)) {
		t.Fatalf("engine.events = %d, want %d", applied, len(events))
	}
	if batches >= applied {
		t.Fatalf("cluster.apply_batches = %d for %d events: the facade applied one envelope at a time", batches, applied)
	}

	ref, err := cluster.New(cluster.Config{
		Partitions:  1,
		Replicas:    1,
		StaticEdges: static,
		Dynamic:     dynstore.Options{Retention: window, MaxPerTarget: 1024},
		NewPrograms: func() []motif.Program {
			return []motif.Program{motif.NewDiamond(motif.DiamondConfig{K: 2, Window: window, MaxFanout: 16})}
		},
		Delivery: delivery.Options{
			DedupTTL: time.Millisecond, MaxPerUserPerDay: 1 << 30,
			SleepStartHour: delivery.SleepDisabled, SleepEndHour: delivery.SleepDisabled,
		},
		ApplyBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	for _, e := range events {
		if err := ref.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	ref.Stop()
	got, want := clu.Stats().Delivered, ref.Stats().Delivered
	if want == 0 {
		t.Fatal("vacuous: the batch-of-one cluster delivered nothing")
	}
	if got != want {
		t.Fatalf("facade delivered %d, batch-of-one cluster %d", got, want)
	}
	t.Logf("%d events in %d batches, %d delivered", applied, batches, got)
}

// TestIntegrationLatencyShape reproduces E2's shape in miniature: with
// lognormal queue hops targeting the paper's quantiles, end-to-end
// latency lands in seconds while graph queries stay in microseconds.
func TestIntegrationLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload replay")
	}
	gcfg := motifstream.GraphConfig{Users: 2_000, AvgFollows: 15, ZipfS: 1.35, Seed: 4}
	static := motifstream.GenFollowGraph(gcfg)
	events := motifstream.GenEventStream(motifstream.StreamConfig{
		Users: gcfg.Users, Events: 8_000, Rate: 100,
		BurstFraction: 0.5, BurstMeanSize: 15, BurstWindow: 5 * time.Minute,
		ZipfS: 1.35, Seed: 5,
	})
	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions:        4,
		K:                 2,
		Window:            5 * time.Minute,
		MaxFanout:         16,
		QueueDelayMedian:  7 * time.Second,
		QueueDelayP99:     15 * time.Second,
		DisableSleepHours: true,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := clu.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	clu.Stop()
	st := clu.Stats()
	if st.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if st.LatencyP50 < 3*time.Second || st.LatencyP50 > 14*time.Second {
		t.Fatalf("p50 = %v, want seconds-scale around 7s", st.LatencyP50)
	}
	if st.LatencyP99 < st.LatencyP50 {
		t.Fatalf("p99 %v < p50 %v", st.LatencyP99, st.LatencyP50)
	}
	t.Logf("e2e latency p50=%v p99=%v over %d deliveries",
		st.LatencyP50, st.LatencyP99, st.Delivered)
}
