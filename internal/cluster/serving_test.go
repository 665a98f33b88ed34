package cluster_test

import (
	"errors"
	"testing"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/cluster"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// The serving rules, through the public API only: which replica slots
// answer reads as they are failed, recovered, killed, restored and added.

// servingCluster starts a one-partition cluster with recovery enabled and
// waits for every replica to go live.
func servingCluster(t *testing.T, replicas int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Partitions:  1,
		Replicas:    replicas,
		StaticEdges: []graph.Edge{{Src: 1, Dst: 10}, {Src: 2, Dst: 10}},
		Dynamic:     dynstore.Options{Retention: time.Hour},
		NewPrograms: func() []motif.Program {
			return []motif.Program{motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute})}
		},
		CheckpointDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Stop() })
	for r := 0; r < replicas; r++ {
		awaitLive(t, c, r)
	}
	return c
}

func awaitLive(t *testing.T, c *cluster.Cluster, r int) {
	t.Helper()
	if err := c.AwaitReplicaLive(0, r, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, c *cluster.Cluster, what string) {
	t.Helper()
	if _, err := c.RecommendationsFor(1); err != nil {
		t.Fatalf("%s: read failed: %v", what, err)
	}
}

func TestServingFailAndRecover(t *testing.T) {
	c := servingCluster(t, 1)
	mustRead(t, c, "live replica")
	if err := c.FailReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecommendationsFor(1); !errors.Is(err, broker.ErrNoReplica) {
		t.Fatalf("read with the only replica failed: err = %v, want ErrNoReplica", err)
	}
	if err := c.RecoverReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	mustRead(t, c, "recovered replica")
}

func TestServingRejectsBadTransitions(t *testing.T) {
	c := servingCluster(t, 2)
	if err := c.FailReplica(0, 2); err == nil {
		t.Fatal("FailReplica on an out-of-range replica accepted")
	}
	if err := c.FailReplica(1, 0); err == nil {
		t.Fatal("FailReplica on an out-of-range partition accepted")
	}
	if err := c.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverReplica(0, 0); err == nil {
		t.Fatal("RecoverReplica on a killed replica accepted")
	}
	mustRead(t, c, "surviving peer")
}

// TestServingGoLiveClearsFailure: a failed replica that is killed and
// restored serves again once it is live, with no RecoverReplica.
func TestServingGoLiveClearsFailure(t *testing.T) {
	c := servingCluster(t, 2)
	if err := c.FailReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	awaitLive(t, c, 0)
	if err := c.FailReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	mustRead(t, c, "restored replica with its peer failed")
}

// TestServingNewcomerAfterLive: a replica added by scale-out serves once
// AwaitReplicaLive returns.
func TestServingNewcomerAfterLive(t *testing.T) {
	c := servingCluster(t, 2)
	idx, err := c.AddReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	awaitLive(t, c, idx)
	for r := 0; r < idx; r++ {
		if err := c.FailReplica(0, r); err != nil {
			t.Fatal(err)
		}
	}
	mustRead(t, c, "newcomer with every other member failed")
}
