package cluster

import (
	"math/rand"
	"testing"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// TestChaosFailuresDuringStream injects replica failures and recoveries
// while the stream is flowing. The invariants: the cluster never
// deadlocks, candidates for groups with a surviving replica keep
// delivering, and the run drains cleanly.
func TestChaosFailuresDuringStream(t *testing.T) {
	const partitions, replicas = 3, 2
	// Ring follow graph: every user follows the next two, so motifs can
	// land in any partition.
	var static []graph.Edge
	const users = 60
	for a := graph.VertexID(0); a < users; a++ {
		static = append(static,
			graph.Edge{Src: a, Dst: (a + 1) % users},
			graph.Edge{Src: a, Dst: (a + 2) % users},
		)
	}
	delivered := 0
	cfg := Config{
		Partitions:  partitions,
		Replicas:    replicas,
		StaticEdges: static,
		Dynamic:     dynstore.Options{Retention: time.Hour},
		NewPrograms: func() []motif.Program {
			return []motif.Program{motif.NewDiamond(motif.DiamondConfig{
				K: 2, Window: time.Hour,
			})}
		},
		Delivery: delivery.Options{
			SleepStartHour: 1, SleepEndHour: 1,
			MaxPerUserPerDay: 1 << 30,
			DedupTTL:         time.Millisecond,
		},
		OnNotify: func(delivery.Notification) { delivered++ },
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	r := rand.New(rand.NewSource(1))
	t0 := int64(1_000_000)
	downs := map[[2]int]bool{}
	for i := 0; i < 2_000; i++ {
		// Complete a motif: two consecutive ring members follow a target.
		b1 := graph.VertexID(r.Intn(users))
		b2 := (b1 + users - 1) % users // the user before b1 follows both... approximately
		target := graph.VertexID(1_000 + i)
		ts := t0 + int64(i)*10
		if err := c.Publish(graph.Edge{Src: b1, Dst: target, Type: graph.Follow, TS: ts}); err != nil {
			t.Fatal(err)
		}
		if err := c.Publish(graph.Edge{Src: b2, Dst: target, Type: graph.Follow, TS: ts + 1}); err != nil {
			t.Fatal(err)
		}
		// Every so often, flip a random replica's fate, keeping at least
		// one replica per group alive.
		if i%100 == 50 {
			pid := r.Intn(partitions)
			rep := r.Intn(replicas)
			key := [2]int{pid, rep}
			if downs[key] {
				if err := c.RecoverReplica(pid, rep); err != nil {
					t.Fatal(err)
				}
				delete(downs, key)
			} else if !downs[[2]int{pid, 1 - rep}] {
				if err := c.FailReplica(pid, rep); err != nil {
					t.Fatal(err)
				}
				downs[key] = true
			}
		}
	}
	c.Stop()

	if delivered == 0 {
		t.Fatal("chaos run delivered nothing")
	}
	st := c.Stats()
	if st.Events != 4_000 {
		t.Fatalf("Events = %d, want 4000", st.Events)
	}
	// Reads still work for users in groups with a healthy replica.
	served := 0
	for a := graph.VertexID(0); a < users; a++ {
		if _, err := c.RecommendationsFor(a); err == nil {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no reads served after chaos")
	}
	t.Logf("chaos: %d delivered, %d/%d users readable, %d replicas down at end",
		delivered, served, users, len(downs))
}

// TestChaosFlapDuringCatchUp drives the nastiest recovery interleaving:
// a replica is killed and restored mid-stream, and while it is replaying
// the firehose to catch up, its surviving peer — the group's only fresh
// copy — is health-flapped repeatedly. The delivered notification set
// must exactly match a no-fault oracle run: nothing lost, nothing
// duplicated.
func TestChaosFlapDuringCatchUp(t *testing.T) {
	static := ringStatic(50)
	stream := motifWorkload(99, 50, 700)

	run := func(chaos bool) map[noteKey]int {
		cfg := recoveryConfig(t, static)
		cfg.CheckpointInterval = 10 * time.Second // stream time
		notes := collectNotes(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		r := rand.New(rand.NewSource(4))
		killAt := len(stream) / 4
		restoreAt := len(stream) / 2
		for i, e := range stream {
			if chaos {
				if i == killAt {
					if err := c.KillReplica(0, 1); err != nil {
						t.Fatal(err)
					}
				}
				if i == restoreAt {
					if err := c.RestoreReplica(0, 1); err != nil {
						t.Fatal(err)
					}
				}
				// While the restored replica races to catch up, flap its
				// peer's health flag — reads degrade, delivery must not.
				if i > restoreAt && i%20 == 0 {
					if r.Intn(2) == 0 {
						if err := c.FailReplica(0, 0); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := c.RecoverReplica(0, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := c.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		c.Stop()
		if chaos {
			if state, _ := c.ReplicaState(0, 1); state != "live" {
				t.Fatalf("restored replica state = %q after drain", state)
			}
		}
		return notes()
	}

	want := run(false)
	got := run(true)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle delivered nothing")
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("notification %v: chaos run delivered %d, oracle %d (lost or duplicated)",
				k, got[k], n)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("chaos run delivered %v, oracle did not", k)
		}
	}
	t.Logf("flap chaos: %d distinct notifications, sets identical", len(want))
}
