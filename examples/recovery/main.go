// Command recovery demonstrates the crash/recovery subsystem: a replica
// of a running cluster is killed mid-stream (losing its entire D store),
// then rejoined by restoring its newest durable checkpoint and replaying
// the retained firehose log until caught up. The run prints the replica's
// state transitions and shows its D store converging back to its healthy
// peer's.
//
// Run with: go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"motifstream"
)

func main() {
	ckptDir, err := os.MkdirTemp("", "motifstream-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)

	gcfg := motifstream.GraphConfig{Users: 5_000, AvgFollows: 25, ZipfS: 1.35, Seed: 1}
	static := motifstream.GenFollowGraph(gcfg)
	scfg := motifstream.StreamConfig{
		Users: 5_000, Events: 60_000, Rate: 10_000,
		BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: 10 * time.Minute,
		ZipfS: 1.35, Seed: 7,
	}
	stream := motifstream.GenEventStream(scfg)
	fmt.Printf("workload: %d static edges, %d stream events\n", len(static), len(stream))

	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions: 4, Replicas: 2, K: 3,
		Window: 10 * time.Minute, MaxInfluencers: 200, MaxFanout: 64,
		DisableSleepHours:  true,
		CheckpointDir:      ckptDir,
		CheckpointInterval: time.Second, // stream time
	})
	if err != nil {
		log.Fatal(err)
	}

	third := len(stream) / 3
	publish := func(events []motifstream.Edge) {
		for _, e := range events {
			if err := clu.Publish(e); err != nil {
				log.Fatal(err)
			}
		}
	}

	state := func() string {
		s, err := clu.ReplicaState(0, 1)
		if err != nil {
			return err.Error()
		}
		return s
	}

	publish(stream[:third])
	fmt.Printf("replica 0/1 state: %-9s after %d events\n", state(), third)

	// Crash it: consumption stops, the D store is dropped.
	if err := clu.KillReplica(0, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica 0/1 state: %-9s (killed — state lost, reads route around it)\n", state())

	publish(stream[third : 2*third])

	// Rejoin: restore the durable checkpoint, replay the firehose.
	start := time.Now()
	if err := clu.RestoreReplica(0, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica 0/1 state: %-9s (restored checkpoint, replaying firehose)\n", state())
	if err := clu.AwaitReplicaLive(0, 1, time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica 0/1 state: %-9s (caught up in %v)\n", state(), time.Since(start).Round(time.Millisecond))

	publish(stream[2*third:])
	clu.Stop()

	s, reg := clu.Stats(), clu.Metrics()
	fmt.Printf("\nevents=%d delivered=%d checkpoints=%d restores=%d\n",
		s.Events, s.Delivered, reg.Counter("cluster.checkpoints").Value(), reg.Counter("cluster.restores").Value())
}
