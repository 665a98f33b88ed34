package motifstream_test

import (
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"motifstream"
)

// counter reads the cluster's counter registered under name, failing the
// test on a name the cluster's registry does not hold: a misspelt name must
// not read as a silent zero.
func counter(t testing.TB, clu *motifstream.Cluster, name string) uint64 {
	t.Helper()
	v, ok := clu.Metrics().CounterValue(name)
	if !ok {
		t.Fatalf("no counter %q in the cluster's registry", name)
	}
	return v
}

// TestClusterMetricNames pins the registry names that carry the counts
// ClusterStats does not: a fresh durable cluster holds every one of them
// before it has counted anything, and the auto-healer's count is there as
// soon as HealAfter is set. A reader by name (the CLI's dump, cmd/soak,
// examples/recovery, the tests' counter helper) relies on these names.
func TestClusterMetricNames(t *testing.T) {
	clu, err := motifstream.NewCluster([]motifstream.Edge{{Src: 1, Dst: 10}}, motifstream.ClusterOptions{
		Partitions: 2, Replicas: 2, K: 2,
		Window:        time.Hour,
		CheckpointDir: t.TempDir(),
		HealAfter:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()
	reg := clu.Metrics()
	for _, name := range []string{
		"cluster.checkpoints", "cluster.checkpoint_errors", "cluster.restores",
		"cluster.compactions", "cluster.reprovisions", "cluster.healed",
		"cluster.base_mirrors", "cluster.base_pool_restores", "cluster.fsyncs_saved",
		"cluster.delivery_state_cuts", "cluster.delivery_state_restores",
		"cluster.scale_outs", "cluster.scale_ins",
		"cluster.audit_records", "cluster.audit_mismatches",
		"cluster.apply_batches", "engine.events",
	} {
		if _, ok := reg.CounterValue(name); !ok {
			t.Errorf("no counter %q in a fresh durable cluster's registry", name)
		}
	}
	dump := reg.Dump()
	if !strings.Contains(dump, "hist cluster.checkpoint_cut_pause:") {
		t.Errorf("no cluster.checkpoint_cut_pause histogram in the dump:\n%s", dump)
	}
	if strings.Contains(dump, "apply_batch_size") {
		t.Errorf("the dump still carries an apply_batch_size histogram:\n%s", dump)
	}
}

// TestClusterFacadeRecovery drives kill → restore → catch-up through the
// public facade with durable checkpoints enabled.
func TestClusterFacadeRecovery(t *testing.T) {
	static := []motifstream.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10},
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11},
	}
	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions: 2, Replicas: 2, K: 2,
		Window:             time.Hour,
		DisableSleepHours:  true,
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: time.Second, // stream time
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	for i := 0; i < 50; i++ {
		item := motifstream.VertexID(1_000 + i)
		ts := t0 + int64(i)*10_000
		if err := clu.Publish(motifstream.Edge{Src: 10, Dst: item, Type: motifstream.Follow, TS: ts}); err != nil {
			t.Fatal(err)
		}
		if err := clu.Publish(motifstream.Edge{Src: 11, Dst: item, Type: motifstream.Follow, TS: ts + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := clu.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if state, _ := clu.ReplicaState(0, 1); state != "dead" {
		t.Fatalf("state after kill = %q", state)
	}
	if err := clu.RestoreReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := clu.AwaitReplicaLive(0, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	clu.Stop()
	s := clu.Stats()
	if s.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if counter(t, clu, "cluster.checkpoints") == 0 {
		t.Fatal("no checkpoints written")
	}
	if n := counter(t, clu, "cluster.restores"); n != 1 {
		t.Fatalf("cluster.restores = %d", n)
	}
	// Reads still served through the broker after recovery.
	if _, err := clu.RecommendationsFor(2); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFacadeRecoveryDisabled checks the guard surfaces cleanly.
func TestClusterFacadeRecoveryDisabled(t *testing.T) {
	clu, err := motifstream.NewCluster(
		[]motifstream.Edge{{Src: 1, Dst: 10}},
		motifstream.ClusterOptions{Partitions: 1, Replicas: 2, K: 2, Window: time.Hour},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()
	if err := clu.KillReplica(0, 0); err == nil {
		t.Fatal("KillReplica without CheckpointDir accepted")
	}
}

// TestClusterFacadeElasticity drives the placement subsystem — scale-out,
// node replacement with base mirroring, scale-in, and the auto-healer —
// through the public facade.
func TestClusterFacadeElasticity(t *testing.T) {
	static := []motifstream.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10},
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11},
	}
	clu, err := motifstream.NewCluster(static, motifstream.ClusterOptions{
		Partitions: 2, Replicas: 2, K: 2,
		Window:             time.Hour,
		DisableSleepHours:  true,
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: time.Second, // stream time
		MirrorBases:        1,
		HealAfter:          50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	for i := 0; i < 50; i++ {
		item := motifstream.VertexID(1_000 + i)
		ts := t0 + int64(i)*10_000
		if err := clu.Publish(motifstream.Edge{Src: 10, Dst: item, Type: motifstream.Follow, TS: ts}); err != nil {
			t.Fatal(err)
		}
		if err := clu.Publish(motifstream.Edge{Src: 11, Dst: item, Type: motifstream.Follow, TS: ts + 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Scale out, then replace the new node in place (planned replacement).
	idx, err := clu.AddReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 || clu.ReplicaCount(0) != 3 {
		t.Fatalf("AddReplica -> idx %d, count %d", idx, clu.ReplicaCount(0))
	}
	if err := clu.AwaitReplicaLive(0, idx, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := clu.ReprovisionReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := clu.AwaitReplicaLive(0, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Scale the added replica back in; the tombstone stays.
	if err := clu.DecommissionReplica(0, idx); err != nil {
		t.Fatal(err)
	}
	if state, _ := clu.ReplicaState(0, idx); state != "removed" {
		t.Fatalf("state after decommission = %q", state)
	}
	// The auto-healer revives a killed replica without an operator call.
	if err := clu.KillReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if state, _ := clu.ReplicaState(1, 1); state == "live" {
			break
		}
		if time.Now().After(deadline) {
			state, _ := clu.ReplicaState(1, 1)
			t.Fatalf("auto-healer never revived 1/1 (state %q)", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
	clu.Stop()
	if out, in := counter(t, clu, "cluster.scale_outs"), counter(t, clu, "cluster.scale_ins"); out != 1 || in != 1 {
		t.Fatalf("scale counts = %d out / %d in", out, in)
	}
	if re, healed := counter(t, clu, "cluster.reprovisions"), counter(t, clu, "cluster.healed"); re < 2 || healed < 1 {
		t.Fatalf("reprovisions = %d (healed %d), want >= 2 (>= 1)", re, healed)
	}
	if _, err := clu.RecommendationsFor(2); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFacadeRestartFromCheckpointDir restarts a deployment that names
// only a CheckpointDir: Shutdown mid-stream, then NewCluster over the same
// directory. The firehose log it replays lives there too, so the delivered
// multiset must equal an uninterrupted run's.
func TestClusterFacadeRestartFromCheckpointDir(t *testing.T) {
	static := motifstream.GenFollowGraph(motifstream.GraphConfig{Users: 400, AvgFollows: 12, ZipfS: 1.3, Seed: 3})
	stream := motifstream.GenEventStream(motifstream.StreamConfig{
		Users: 400, Events: 6_000, Rate: 10_000,
		BurstFraction: 0.35, BurstMeanSize: 10, BurstWindow: 10 * time.Minute,
		ZipfS: 1.3, Seed: 5,
	})
	type key struct {
		user, item motifstream.VertexID
		at         int64
	}
	run := func(restartAt int) map[key]int {
		var mu sync.Mutex
		got := map[key]int{}
		opts := motifstream.ClusterOptions{
			Partitions: 2, Replicas: 2, K: 3,
			Window: 10 * time.Minute, MaxFanout: 64,
			DisableSleepHours:  true,
			CheckpointDir:      t.TempDir(),
			CheckpointInterval: time.Second, // stream time
			OnNotify: func(n motifstream.Notification) {
				mu.Lock()
				got[key{n.Candidate.User, n.Candidate.Item, n.DeliveredAtMS}]++
				mu.Unlock()
			},
		}
		clu, err := motifstream.NewCluster(static, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range stream {
			if i == restartAt {
				clu.Shutdown()
				if clu, err = motifstream.NewCluster(static, opts); err != nil {
					t.Fatalf("reopen over the checkpoint directory alone: %v", err)
				}
			}
			if err := clu.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		clu.Stop()
		return got
	}
	want, got := run(-1), run(len(stream)/2)
	if len(want) == 0 {
		t.Fatal("vacuous: the uninterrupted run delivered nothing")
	}
	if !maps.Equal(got, want) {
		t.Fatalf("restarted run delivered %d distinct notifications, uninterrupted %d; the multisets differ", len(got), len(want))
	}
	t.Logf("%d distinct notifications, identical across the restart", len(want))
}
