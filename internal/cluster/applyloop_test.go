package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/partition"
)

// stateEncoding returns p's canonical recoverable-state encoding (the base
// checkpoint format: sorted keys, stream-derived fields only), so two
// partitions hold the same state iff the encodings are byte-equal. The
// tests compare encodings rather than Partition.Fingerprint values: the
// fingerprint is a CRC32C taken over the payload AND its own CRC32C
// trailer, which is the CRC residue constant 0x48674bc7 for every state.
func stateEncoding(t *testing.T, p *partition.Partition) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(p.AppendBase(nil))
	return buf.Bytes()
}

// clusterFreeOracle is the reference the apply loop is held against that
// shares no code with it: one goroutine, partition.Apply per partition in
// stream order, candidates straight into a delivery.Pipeline — no queue, no
// consumer, no batch, no commit stage, no checkpoint. Every other oracle in
// the repo is itself a cluster run. Returns the delivered multiset and each
// partition's final state encoding.
func clusterFreeOracle(t *testing.T, cfg Config, stream []graph.Edge) (map[noteKey]int, [][]byte) {
	t.Helper()
	part := partition.NewHashPartitioner(cfg.Partitions)
	parts := make([]*partition.Partition, cfg.Partitions)
	for pid := range parts {
		p, err := partition.New(partition.Config{
			ID:             pid,
			StaticEdges:    cfg.StaticEdges,
			Partitioner:    part,
			MaxInfluencers: cfg.MaxInfluencers,
			Dynamic:        cfg.Dynamic,
			Programs:       cfg.NewPrograms(),
		})
		if err != nil {
			t.Fatal(err)
		}
		parts[pid] = p
	}
	pipe := delivery.NewPipeline(cfg.Delivery)
	notes := map[noteKey]int{}
	for _, e := range stream {
		for _, p := range parts {
			for _, cand := range p.Apply(e) {
				if _, note := pipe.Offer(cand, 0); note != nil {
					notes[noteKey{note.Candidate.User, note.Candidate.Item}]++
				}
			}
		}
	}
	if len(notes) == 0 {
		t.Fatal("vacuous: oracle delivered nothing")
	}
	// The stream must outlive D's retention, so sweeps pruned mid-stream.
	if retained := parts[0].Engine().Dynamic().Stats().Edges; retained >= int64(len(stream)) {
		t.Fatalf("vacuous: no sweep pruned D (%d of %d edges retained)", retained, len(stream))
	}
	states := make([][]byte, len(parts))
	for pid, p := range parts {
		states[pid] = stateEncoding(t, p)
	}
	return notes, states
}

// TestApplyLoopMatchesClusterFreeOracle holds the replica apply loop
// against the cluster-free oracle at the degenerate batch bounds and the
// deployed one. The stream spans ~15 sweep intervals and ~20 checkpoint
// intervals, so at a bound of one every sweep and cut is a batch of its own
// and at 16x2 the assembler has to end batches at them. Replica 0 of each
// partition applies the whole stream live. Replica 1 is killed two thirds
// in and restored after the last publish, so its final state is a
// checkpoint chain plus a log replay: a cut that captured anything past its
// offset (a batch not ended at the cut) would have the replay apply those
// events twice and leave a state the oracle never held.
func TestApplyLoopMatchesClusterFreeOracle(t *testing.T) {
	const users = 40
	static := ringStatic(users)
	stream := motifWorkload(17, users, 300) // ~900s of stream time

	newCfg := func() Config {
		cfg := recoveryConfig(t, static)
		cfg.Dynamic = dynstore.Options{Retention: time.Minute} // sweeps prune mid-stream
		cfg.CheckpointInterval = 45 * time.Second              // cuts off the sweep cadence
		return cfg
	}
	wantNotes, wantStates := clusterFreeOracle(t, newCfg(), stream)

	for _, v := range []struct{ batch, workers int }{{0, 0}, {1, 0}, {16, 2}} {
		t.Run(fmt.Sprintf("batch%d_workers%d", v.batch, v.workers), func(t *testing.T) {
			cfg := newCfg()
			cfg.ApplyBatch = v.batch
			cfg.ApplyWorkers = v.workers
			notes := collectNotes(&cfg)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			for i, e := range stream {
				if i == 2*len(stream)/3 {
					for pid := 0; pid < cfg.Partitions; pid++ {
						if err := c.KillReplica(pid, 1); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := c.Publish(e); err != nil {
					t.Fatal(err)
				}
			}
			for pid := 0; pid < cfg.Partitions; pid++ {
				if err := c.RestoreReplica(pid, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.AwaitReplicaLive(pid, 1, 15*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			c.Stop()

			assertSameNotes(t, wantNotes, notes())
			for pid := 0; pid < cfg.Partitions; pid++ {
				for r := 0; r < cfg.Replicas; r++ {
					p, err := c.Replica(pid, r)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(stateEncoding(t, p), wantStates[pid]) {
						t.Errorf("replica %d/%d final state differs from the oracle's", pid, r)
					}
				}
			}
			if counter(t, c, "cluster.checkpoints") == 0 {
				t.Fatal("vacuous: no checkpoint was cut")
			}
			// Every batch holds at least one envelope, so the replicas
			// applied as many events as batches exactly when none held two.
			applied, batches := counter(t, c, "engine.events"), c.Stats().ApplyBatches
			if v.batch <= 1 && applied != batches {
				t.Fatalf("batch bound %d applied %d events in %d batches", v.batch, applied, batches)
			}
		})
	}
}
