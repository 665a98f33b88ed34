package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/motifdsl"
	"motifstream/internal/statstore"
)

// multiQueryDSL generates a seeded standing-query set whose plans share
// probe prefixes: follow families (one window+fanout each, several
// thresholds), a content family with per-type windows, and k=1
// broadcasts. Thresholds above the static fan-out never fire, which
// exercises the shared executor's early-exit paths alongside the hot ones.
func multiQueryDSL(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	id := 0
	windows := []string{"5m", "10m", "20m"}
	for f := 0; f < 2; f++ {
		w := windows[r.Intn(len(windows))]
		fan := 32 * (1 + r.Intn(2))
		for _, k := range []int{2, 3, 2 + r.Intn(3)} {
			id++
			fmt.Fprintf(&sb, `
motif "follow-%d" {
    match A -> B;
    match B =[follow]=> C within %s;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout %d;
}`, id, w, k, fan)
		}
	}
	for _, k := range []int{2, 3} {
		id++
		fmt.Fprintf(&sb, `
motif "content-%d" {
    match A -> B;
    match B =[retweet]=> C within 5m;
    match B =[favorite]=> C within 15m;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout 32;
    limit candidates 16;
}`, id, k)
	}
	for i := 0; i < 2; i++ {
		id++
		fmt.Fprintf(&sb, `
motif "broadcast-%d" {
    match A -> B;
    match B =[follow]=> C;
    where count(B) >= 1;
    emit C to A;
    limit candidates 8;
}`, id)
	}
	return sb.String()
}

// multiQueryPrograms returns a NewPrograms constructor for the seeded
// motif set, with the triangle closure (a plan alone under its key) leading
// the registration order so the groups' slots interleave.
func multiQueryPrograms(t testing.TB, seed int64) func() []motif.Program {
	t.Helper()
	src := multiQueryDSL(seed)
	if _, err := motifdsl.Compile(src); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return func() []motif.Program {
		progs, err := motifdsl.Compile(src)
		if err != nil {
			panic(err)
		}
		out := make([]motif.Program, 0, len(progs)+1)
		out = append(out, motif.NewTriangleClosure(10*time.Minute))
		return append(out, progs...)
	}
}

// ungroupedOracle is the multi-query reference: no engine and so no
// grouping, and no partitions — one S and one follows index over every user,
// one D — and per event each plan's OnEdge, a group of one, in registration
// order, its candidates straight into a delivery.Pipeline. The stream must be
// shorter than D's retention, since nothing sweeps. Returns the delivered
// multiset.
func ungroupedOracle(t *testing.T, cfg Config, stream []graph.Edge) map[noteKey]int {
	t.Helper()
	snap := (&statstore.Builder{MaxInfluencers: cfg.MaxInfluencers}).Build(cfg.StaticEdges)
	ctx := &motif.Context{S: statstore.New(snap), D: dynstore.New(cfg.Dynamic), Follows: snap.Follows}
	progs := cfg.NewPrograms()
	pipe := delivery.NewPipeline(cfg.Delivery)
	notes := map[noteKey]int{}
	for _, e := range stream {
		ctx.D.Insert(e)
		for _, p := range progs {
			for _, cand := range p.OnEdge(ctx, e) {
				if _, note := pipe.Offer(cand, 0); note != nil {
					notes[noteKey{note.Candidate.User, note.Candidate.Item}]++
				}
			}
		}
	}
	return notes
}

// TestCoActionRecipientsAreOwned: the co-actor shape takes its recipients
// from D, which every partition holds in full, and its already-follows skip
// from S, which holds only the partition's own users. A cluster of four
// partitions running the triangle closure must deliver exactly what one
// global S and follows index deliver: no partition recommends B to a user it
// does not own, who may already follow B. Each user follows the next one, so
// of three consecutive co-actors the first may be recommended the third but
// never the second.
func TestCoActionRecipientsAreOwned(t *testing.T) {
	const users = 40
	var static []graph.Edge
	for a := graph.VertexID(0); a < users; a++ {
		static = append(static, graph.Edge{Src: a, Dst: (a + 1) % users})
	}
	cfg := recoveryConfig(t, static)
	cfg.Partitions = 4
	cfg.NewPrograms = func() []motif.Program { return []motif.Program{motif.NewTriangleClosure(10 * time.Minute)} }
	stream := multiTypeWorkload(9, users, 300)
	want := ungroupedOracle(t, cfg, stream)
	notes := collectNotes(&cfg)
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
	assertSameNotes(t, want, notes())
}

// fanStatic wires users 0..n-1 so each follows the next three, letting
// thresholds up to k=3 complete.
func fanStatic(n int) []graph.Edge {
	var static []graph.Edge
	for a := graph.VertexID(0); a < graph.VertexID(n); a++ {
		for d := graph.VertexID(1); d <= 3; d++ {
			static = append(static, graph.Edge{Src: a, Dst: (a + d) % graph.VertexID(n)})
		}
	}
	return static
}

// multiTypeWorkload is a seeded stream where 2-3 consecutive ring members
// act on a fresh target with mixed edge types, so follow families, content
// families, and broadcasts all fire. Stream time advances ~3s per step.
func multiTypeWorkload(seed int64, users, steps int) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	t0 := int64(10_000_000)
	var out []graph.Edge
	for i := 0; i < steps; i++ {
		b := graph.VertexID(r.Intn(users))
		target := graph.VertexID(200_000 + i)
		ts := t0 + int64(i)*3_000
		n := 2 + r.Intn(2)
		for j := 0; j < n; j++ {
			out = append(out, graph.Edge{
				Src:  (b + graph.VertexID(j)) % graph.VertexID(users),
				Dst:  target,
				Type: graph.EdgeType(r.Intn(3)),
				TS:   ts + int64(j),
			})
		}
	}
	return out
}

// TestMultiQuerySharedMatchesIndependent is the cluster-level multi-query
// differential: across randomized motif sets, seeds, and batch/worker
// configurations, a shared-trie cluster must deliver exactly the
// notification multiset of every motif run independently (ungroupedOracle),
// and every configuration must converge to the bit-identical recoverable
// state of the unbatched one (per-replica CRC32C fingerprints).
func TestMultiQuerySharedMatchesIndependent(t *testing.T) {
	const users = 40
	static := fanStatic(users)
	type variant struct {
		batch, workers int
	}
	variants := []variant{
		{batch: 1, workers: 1},
		{batch: 16, workers: 2},
		{batch: 64, workers: 4},
	}
	for _, seed := range []int64{5, 21} {
		stream := multiTypeWorkload(seed, users, 300)
		newProgs := multiQueryPrograms(t, seed)
		refCfg := recoveryConfig(t, static)
		refCfg.NewPrograms = newProgs
		refNotes := ungroupedOracle(t, refCfg, stream)
		// The first variant's fingerprints, by partition and replica.
		var want map[[2]int]uint32

		for _, v := range variants {
			name := fmt.Sprintf("seed%d/batch%d_workers%d", seed, v.batch, v.workers)
			t.Run(name, func(t *testing.T) {
				cfg := recoveryConfig(t, static)
				cfg.NewPrograms = newProgs
				cfg.ApplyBatch = v.batch
				cfg.ApplyWorkers = v.workers
				notes := collectNotes(&cfg)
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

				assertSameNotes(t, refNotes, notes())
				got := map[[2]int]uint32{}
				for pid := 0; pid < cfg.Partitions; pid++ {
					for r := 0; r < cfg.Replicas; r++ {
						p, err := c.Replica(pid, r)
						if err != nil {
							t.Fatal(err)
						}
						got[[2]int{pid, r}] = fingerprint(p)
					}
				}
				if want == nil {
					want = got
				}
				for slot, sum := range got {
					if sum != want[slot] {
						t.Errorf("partition %d replica %d: fingerprint %08x != %08x at batch %d×%d",
							slot[0], slot[1], sum, want[slot], variants[0].batch, variants[0].workers)
					}
				}
			})
		}
	}
}

// TestMultiQueryKillRestore extends the crash matrix to multi-motif
// configurations: a kill/checkpoint/restore/replay run over a shared-trie
// standing-query set must deliver the no-fault run's notification set
// exactly, and the recorded state fingerprints must cross-verify clean.
func TestMultiQueryKillRestore(t *testing.T) {
	const users = 50
	static := fanStatic(users)
	stream := multiTypeWorkload(33, users, 400)
	newProgs := multiQueryPrograms(t, 33)

	oracleCfg := recoveryConfig(t, static)
	oracleCfg.NewPrograms = newProgs
	oracleNotes := collectNotes(&oracleCfg)
	oracle, err := New(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Start()
	for _, e := range stream {
		if err := oracle.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	oracle.Stop()

	faultCfg := recoveryConfig(t, static)
	faultCfg.NewPrograms = newProgs
	faultCfg.ApplyBatch = 16
	faultCfg.ApplyWorkers = 2
	faultNotes := collectNotes(&faultCfg)
	fault, err := New(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	fault.Start()
	killAt, restoreAt := len(stream)/3, 2*len(stream)/3
	for i, e := range stream {
		if i == killAt {
			for pid := 0; pid < faultCfg.Partitions; pid++ {
				if err := fault.KillReplica(pid, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i == restoreAt {
			for pid := 0; pid < faultCfg.Partitions; pid++ {
				if err := fault.RestoreReplica(pid, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fault.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	fault.Stop()

	assertSameNotes(t, oracleNotes(), faultNotes())
	records := 0
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		rep, err := fault.VerifyFingerprints(pid)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Mismatches) > 0 {
			t.Fatalf("partition %d: fingerprint mismatches under multi-motif recovery: %+v", pid, rep.Mismatches)
		}
		records += rep.Records
		recovered, err := fault.Replica(pid, 1)
		if err != nil {
			t.Fatal(err)
		}
		reference, err := oracle.Replica(pid, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(recovered)
		want := fingerprint(reference)
		if got != want {
			t.Fatalf("partition %d: recovered fingerprint %08x != oracle %08x", pid, got, want)
		}
	}
	if records == 0 {
		t.Fatal("vacuous: audit recorded no fingerprints")
	}
}
