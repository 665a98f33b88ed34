package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/partition"
)

// noteRecord spells out everything a notification says about its candidate,
// Via included.
func noteRecord(n delivery.Notification) string {
	c := n.Candidate
	return fmt.Sprintf("%d<-%d via %v by %s on %v at %d score %g", c.User, c.Item, c.Via, c.Program, c.Trigger, c.DetectedAtMS, c.Score)
}

// TestNotificationsOutliveTheirChunks keeps every Notification OnNotify hands
// out — its Via as received, not copied — while the stream runs on through
// many more chunks than the replicas' engines hold, and only when the cluster
// has stopped compares them with the notifications of a cluster-free
// sequential run. The candidate path recycles a chunk once every window of it
// is released, which the hub does right after offering an event's
// candidates, so a notification's Via must be the delivery pipeline's own:
// were it a window of a replica's chunk, a later event would rewrite it (and,
// under the race detector, the poison a released chunk is filled with would).
// Two replicas per group make the hub skip, and release, a redundant copy of
// every event.
func TestNotificationsOutliveTheirChunks(t *testing.T) {
	const bs, users, steps = 12, 240, 400
	// User 1000+a follows three of the twelve B's; a step has four B's act on
	// a fresh target, so roughly a quarter of the users complete a diamond on
	// it, by two or three supports.
	var static []graph.Edge
	for a := 0; a < users; a++ {
		for _, b := range []int{a % bs, (a + 1) % bs, (a + 5) % bs} {
			static = append(static, graph.Edge{Src: graph.VertexID(1000 + a), Dst: graph.VertexID(b)})
		}
	}
	r := rand.New(rand.NewSource(5))
	var stream []graph.Edge
	for i := 0; i < steps; i++ {
		target, ts := graph.VertexID(100_000+i), int64(10_000_000+i*1_000)
		for j, b := range r.Perm(bs)[:4] {
			stream = append(stream, graph.Edge{Src: graph.VertexID(b), Dst: target, Type: graph.Follow, TS: ts + int64(j)})
		}
	}
	cfg := Config{
		Partitions:   2,
		Replicas:     2,
		StaticEdges:  static,
		Dynamic:      dynstore.Options{Retention: time.Hour},
		NewPrograms:  diamondPrograms,
		ApplyBatch:   16,
		ApplyWorkers: 2,
		Delivery: delivery.Options{
			SleepStartHour: 1, SleepEndHour: 1,
			MaxPerUserPerDay: 1 << 30,
		},
	}

	// The sequential run: partition.Apply per partition in stream order, the
	// candidates straight into a pipeline.
	part := partition.NewHashPartitioner(cfg.Partitions)
	var parts []*partition.Partition
	for pid := 0; pid < cfg.Partitions; pid++ {
		p, err := partition.New(partition.Config{
			ID: pid, StaticEdges: static, Partitioner: part, Dynamic: cfg.Dynamic, Programs: cfg.NewPrograms(),
		})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	pipe := delivery.NewPipeline(cfg.Delivery)
	want := map[string]int{}
	cands := 0
	for _, e := range stream {
		for _, p := range parts {
			for _, c := range p.Apply(e) {
				cands++
				if _, note := pipe.Offer(c, 0); note != nil {
					want[noteRecord(*note)]++
				}
			}
		}
	}
	// Each partition's replicas fill dozens of candidate chunks (256 each).
	if cands < 40*256*cfg.Partitions || len(want) < 1000 {
		t.Fatalf("vacuous: %d candidates, %d notifications", cands, len(want))
	}

	var mu sync.Mutex
	var kept []delivery.Notification
	cfg.OnNotify = func(n delivery.Notification) {
		mu.Lock()
		kept = append(kept, n)
		mu.Unlock()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, e := range stream {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	c.Stop()

	got := map[string]int{}
	for _, n := range kept {
		got[noteRecord(n)]++
	}
	for rec, n := range got {
		if want[rec] != n {
			t.Fatalf("the cluster delivered %d× %s, the sequential run %d×", n, rec, want[rec])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the cluster delivered %d distinct notifications, the sequential run %d", len(got), len(want))
	}
}
