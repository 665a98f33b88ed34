package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/cluster"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

// runE9 measures the replication claim: "we can replicate the partitions
// for both fault tolerance and increased query throughput." Read
// throughput should scale with replicas, and killing a replica must not
// interrupt service.
func runE9(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	if !c.quick {
		events = 60_000
	}
	static := cachedGraph(users, avgFollows)
	stream := cachedStream(users, events)

	// In-process replica reads take nanoseconds, so raw reads would never
	// show the paper's replication benefit (its replicas are separate
	// servers with finite capacity). capacityReplica models that: one
	// request at a time per replica, with a fixed per-read service time.
	fmt.Println("  (a) broker read throughput vs replicas (32 readers, 500µs service time/replica)")
	tb := newTable("replicas", "reads/s", "scaling vs 1 replica")
	var base float64
	for _, replicas := range []int{1, 2, 3} {
		clu, _ := runDiamond(static, stream, func(c *cluster.Config) { c.Replicas = replicas })
		groups := make([][]broker.Member, 4)
		for pid := 0; pid < 4; pid++ {
			for rep := 0; rep < replicas; rep++ {
				p, err := clu.Replica(pid, rep)
				if err != nil {
					log.Fatal(err)
				}
				groups[pid] = append(groups[pid], &capacityReplica{inner: p, service: 500 * time.Microsecond})
			}
		}
		capped, err := broker.New(clu.Partitioner(), groups)
		if err != nil {
			log.Fatal(err)
		}
		const readers = 32
		perReader := 500
		if c.quick {
			perReader = 200
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perReader; i++ {
					a := graph.VertexID((w*perReader + i) % users)
					if _, err := capped.RecommendationsFor(a); err != nil {
						log.Fatal(err)
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		rate := float64(readers*perReader) / elapsed.Seconds()
		if replicas == 1 {
			base = rate
		}
		tb.addf("%d|%.0f|%.2fx", replicas, rate, rate/base)
	}
	tb.print()

	fmt.Println("\n  (b) failover continuity with 2 replicas")
	clu, _ := runDiamond(static, stream, func(c *cluster.Config) { c.Replicas = 2 })
	// Probe a user that actually has recommendations.
	probe := graph.VertexID(0)
	for a := graph.VertexID(0); a < graph.VertexID(users); a++ {
		if recs, err := clu.RecommendationsFor(a); err == nil && len(recs) > 0 {
			probe = a
			break
		}
	}
	before, err := clu.RecommendationsFor(probe)
	if err != nil {
		log.Fatal(err)
	}
	pid := clu.Partitioner().PartitionOf(probe)
	if err := clu.FailReplica(pid, 0); err != nil {
		log.Fatal(err)
	}
	after, err := clu.RecommendationsFor(probe)
	if err != nil {
		log.Fatalf("reads failed after single-replica failure: %v", err)
	}
	fmt.Printf("  replica 0 of partition %d failed: reads continue (%d results before, %d after) ✔\n",
		pid, len(before), len(after))
	if err := clu.FailReplica(pid, 1); err != nil {
		log.Fatal(err)
	}
	if _, err := clu.RecommendationsFor(probe); err == nil {
		log.Fatal("expected an error with every replica down")
	}
	fmt.Println("  both replicas failed: reads error out as expected ✔")
	fmt.Println("  expected shape: read throughput grows with replica count; single-replica")
	fmt.Println("  failure is invisible to clients.")
}

// capacityReplica wraps a replica with a per-server capacity model: one
// in-flight read at a time, each costing a fixed service time. This is
// what makes replication's read-throughput benefit visible in-process. It
// is its own broker member, always serving.
type capacityReplica struct {
	inner   broker.Replica
	service time.Duration
	mu      sync.Mutex
}

func (r *capacityReplica) ID() int                              { return r.inner.ID() }
func (r *capacityReplica) TopItems(n int) []partition.ItemCount { return r.inner.TopItems(n) }
func (r *capacityReplica) Serving() (broker.Replica, bool)      { return r, true }

func (r *capacityReplica) RecommendationsFor(a graph.VertexID) []motif.Candidate {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.inner.RecommendationsFor(a)
	// Sleep while holding the replica's lock: the replica is busy for the
	// service time (requests to it queue), but the host CPU is free, so
	// independent replicas overlap — the property replication buys. A
	// busy-wait would serialize on host cores instead and hide the effect
	// entirely on small machines.
	time.Sleep(r.service)
	return out
}
