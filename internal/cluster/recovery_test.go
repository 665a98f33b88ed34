package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/placement"
)

// replicaCkptDir names a generation-0 replica checkpoint directory — the
// placement a cluster is constructed with. Re-provisioned replicas live in
// later-generation directories; tests that follow one use slot.dir.
func replicaCkptDir(dir string, pid, r int) string {
	return placement.Dir(dir, pid, r, 0)
}

// recoveryConfig is a 2-partition, 2-replica cluster with durable
// checkpoints and a deterministic, suppression-free delivery pipeline.
func recoveryConfig(t testing.TB, static []graph.Edge) Config {
	t.Helper()
	return Config{
		Partitions:         2,
		Replicas:           2,
		StaticEdges:        static,
		Dynamic:            dynstore.Options{Retention: time.Hour},
		NewPrograms:        diamondPrograms,
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: time.Minute, // stream time
		// Every recovery test runs with the fingerprint audit on: each cut
		// records a state fingerprint and every recovery composition is
		// cross-checked, so any divergence a scenario provokes is caught as
		// a bit-level mismatch, not only as a delivered-set difference.
		Audit: true,
		Delivery: delivery.Options{
			SleepStartHour: 1, SleepEndHour: 1,
			MaxPerUserPerDay: 1 << 30,
		},
	}
}

// ringStatic wires users 0..n-1 so each follows the next two — motifs can
// complete for A's in every partition.
func ringStatic(n int) []graph.Edge {
	var static []graph.Edge
	for a := graph.VertexID(0); a < graph.VertexID(n); a++ {
		static = append(static,
			graph.Edge{Src: a, Dst: (a + 1) % graph.VertexID(n)},
			graph.Edge{Src: a, Dst: (a + 2) % graph.VertexID(n)},
		)
	}
	return static
}

// motifWorkload generates a seeded stream where consecutive ring members
// follow fresh targets, completing diamonds continually. Stream time
// advances ~3s per step so checkpoint intervals and sweeps trigger.
func motifWorkload(seed int64, users, steps int) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	t0 := int64(10_000_000)
	var out []graph.Edge
	for i := 0; i < steps; i++ {
		b1 := graph.VertexID(r.Intn(users))
		b2 := (b1 + 1) % graph.VertexID(users)
		target := graph.VertexID(100_000 + i)
		ts := t0 + int64(i)*3_000
		out = append(out,
			graph.Edge{Src: b1, Dst: target, Type: graph.Follow, TS: ts},
			graph.Edge{Src: b2, Dst: target, Type: graph.Follow, TS: ts + 1},
		)
	}
	return out
}

// noteKey identifies one delivered notification for set comparison.
type noteKey struct {
	user, item graph.VertexID
}

// collectNotes wires a mutex-guarded notification recorder into cfg.
func collectNotes(cfg *Config) func() map[noteKey]int {
	var mu sync.Mutex
	got := map[noteKey]int{}
	cfg.OnNotify = func(n delivery.Notification) {
		mu.Lock()
		got[noteKey{n.Candidate.User, n.Candidate.Item}]++
		mu.Unlock()
	}
	return func() map[noteKey]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[noteKey]int, len(got))
		for k, v := range got {
			out[k] = v
		}
		return out
	}
}

// latencyNote identifies one delivered notification together with the
// simulated end-to-end latency it reported.
type latencyNote struct {
	noteKey
	latency time.Duration
}

// collectLatencies chains a recorder of every notification's latency onto
// cfg.OnNotify.
func collectLatencies(cfg *Config) func() map[latencyNote]int {
	var mu sync.Mutex
	got := map[latencyNote]int{}
	next := cfg.OnNotify
	cfg.OnNotify = func(n delivery.Notification) {
		mu.Lock()
		got[latencyNote{noteKey{n.Candidate.User, n.Candidate.Item}, n.Latency}]++
		mu.Unlock()
		if next != nil {
			next(n)
		}
	}
	return func() map[latencyNote]int {
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

func TestKillRestoreValidation(t *testing.T) {
	// Without CheckpointDir the recovery subsystem is unavailable.
	plain, err := New(testConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.KillReplica(0, 0); err != ErrRecoveryDisabled {
		t.Fatalf("KillReplica without CheckpointDir = %v", err)
	}
	if err := plain.RestoreReplica(0, 0); err != ErrRecoveryDisabled {
		t.Fatalf("RestoreReplica without CheckpointDir = %v", err)
	}

	cfg := recoveryConfig(t, fig1Static())
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	if err := c.KillReplica(9, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := c.RestoreReplica(0, 0); err == nil {
		t.Fatal("restoring a live replica accepted")
	}
	if err := c.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.KillReplica(0, 0); err == nil {
		t.Fatal("double kill accepted")
	}
	if err := c.KillReplica(0, 1); err == nil {
		t.Fatal("killing the last alive replica accepted")
	}
	if err := c.RecoverReplica(0, 0); err == nil {
		t.Fatal("RecoverReplica on a dead replica accepted; must use RestoreReplica")
	}
	if state, _ := c.ReplicaState(0, 0); state != "dead" {
		t.Fatalf("killed replica state = %q", state)
	}
	if err := c.RestoreReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitReplicaLive(0, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestKillReplicaDropsStateAndStopsConsuming(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(5, 40, 300)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Replica(0, 1)
	if st := p.Engine().Dynamic().Stats(); st.Edges != 0 {
		t.Fatalf("killed replica kept its D store: %+v", st)
	}
	for _, e := range stream[half:] {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	c.Stop()
	// Dead replica consumed nothing after the kill.
	if st := p.Engine().Dynamic().Stats(); st.Edges != 0 {
		t.Fatalf("dead replica kept consuming: %+v", st)
	}
	// Its healthy peer consumed everything.
	peer, _ := c.Replica(0, 0)
	if st := peer.Engine().Dynamic().Stats(); st.Edges == 0 {
		t.Fatal("surviving replica has an empty D store")
	}
}

// TestFaultEquivalenceOracle is the suite's centerpiece: the same seeded
// workload runs through a no-fault cluster and through a cluster whose
// replica is killed mid-stream, restored from its durable checkpoint, and
// caught up by replaying the firehose. The delivered notification sets
// must be identical — no lost and no duplicate pushes — and the recovered
// replica's D store must converge to the no-fault replica's. Both queue hops
// model a heavy-tailed delay, and every notification must report the same
// simulated latency in the no-fault run, in the fault run (whichever
// replica's offer wins, live or replayed) and in a third run that is shut
// down mid-stream and reopened over its durable log: the delay is a function
// of seed and stream, not of who delivers the event or when.
func TestFaultEquivalenceOracle(t *testing.T) {
	static := ringStatic(60)
	stream := motifWorkload(42, 60, 600)
	delayedConfig := func() Config {
		cfg := recoveryConfig(t, static)
		cfg.HopDelay = LognormalFromQuantiles(3500*time.Millisecond, 7500*time.Millisecond)
		cfg.Seed = 7
		return cfg
	}

	// Oracle: no faults.
	oracleCfg := delayedConfig()
	oracleNotes := collectNotes(&oracleCfg)
	oracleLatencies := collectLatencies(&oracleCfg)
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

	// Fault run: kill replica 1 of both partitions a third in, restore
	// two thirds in, let catch-up finish before the stream ends.
	faultCfg := delayedConfig()
	faultNotes := collectNotes(&faultCfg)
	faultLatencies := collectLatencies(&faultCfg)
	fault, err := New(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	fault.Start()
	killAt := len(stream) / 3
	restoreAt := 2 * len(stream) / 3
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
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		if state, _ := fault.ReplicaState(pid, 1); state != "live" {
			t.Fatalf("partition %d replica 1 state = %q after drain, want live", pid, state)
		}
	}

	// Delivered notification sets are identical.
	want, got := oracleNotes(), faultNotes()
	if len(want) == 0 {
		t.Fatal("vacuous: oracle run delivered nothing")
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("notification %v delivered %d times in fault run, %d in oracle", k, got[k], n)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("fault run delivered %v, oracle did not", k)
		}
	}

	// Restart run: a clean shutdown a third in, the rest after a reopen.
	reopenCfg := delayedConfig()
	reopenCfg.LogDir = t.TempDir()
	reopenLatencies := collectLatencies(&reopenCfg)
	for _, span := range [][]graph.Edge{stream[:killAt], stream[killAt:]} {
		c, err := New(reopenCfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		for _, e := range span {
			if err := c.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		c.Shutdown()
	}

	// So are the simulated latencies they report.
	wantLat := oracleLatencies()
	distinct := map[time.Duration]bool{}
	for k := range wantLat {
		distinct[k.latency] = true
	}
	if len(distinct) < len(wantLat)/2 {
		t.Fatalf("vacuous: %d notifications report only %d distinct latencies", len(wantLat), len(distinct))
	}
	for name, gotLat := range map[string]map[latencyNote]int{"kill/restore": faultLatencies(), "shutdown/reopen": reopenLatencies()} {
		if len(gotLat) != len(wantLat) {
			t.Fatalf("%s run reported %d distinct (notification, latency) pairs, oracle %d", name, len(gotLat), len(wantLat))
		}
		for k, n := range wantLat {
			if gotLat[k] != n {
				t.Fatalf("%s run: %v with latency %v seen %d times, %d in oracle", name, k.noteKey, k.latency, gotLat[k], n)
			}
		}
	}

	// The recovered replicas' D stores converge to the no-fault ones.
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		recovered, _ := fault.Replica(pid, 1)
		reference, _ := oracle.Replica(pid, 1)
		gotD := recovered.Engine().Dynamic().Stats()
		wantD := reference.Engine().Dynamic().Stats()
		if gotD != wantD {
			t.Fatalf("partition %d recovered D stats %+v != oracle %+v", pid, gotD, wantD)
		}
		// And to their own surviving peer's.
		peer, _ := fault.Replica(pid, 0)
		if peerD := peer.Engine().Dynamic().Stats(); gotD != peerD {
			t.Fatalf("partition %d recovered D stats %+v != peer %+v", pid, gotD, peerD)
		}
	}

	// Checkpoints were actually written and used.
	if counter(t, fault, "cluster.checkpoints") == 0 {
		t.Fatal("fault run wrote no checkpoints")
	}
	if n := counter(t, fault, "cluster.restores"); n != uint64(faultCfg.Partitions) {
		t.Fatalf("cluster.restores = %d, want %d", n, faultCfg.Partitions)
	}
}

// TestRestoreWithoutCheckpointReplaysFromZero covers the cold-restore
// path: no checkpoint file exists, so the replica rebuilds purely from
// the retained firehose log.
func TestRestoreWithoutCheckpointReplaysFromZero(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	cfg.CheckpointInterval = time.Hour * 24 * 365 // never checkpoint
	notes := collectNotes(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(11, 40, 400)
	third := len(stream) / 3
	for _, e := range stream[:third] {
		c.Publish(e)
	}
	if err := c.KillReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	for _, e := range stream[third : 2*third] {
		c.Publish(e)
	}
	if err := c.RestoreReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	for _, e := range stream[2*third:] {
		c.Publish(e)
	}
	c.Stop()
	if state, _ := c.ReplicaState(1, 0); state != "live" {
		t.Fatalf("state = %q after drain", state)
	}
	restored, _ := c.Replica(1, 0)
	peer, _ := c.Replica(1, 1)
	if got, want := restored.Engine().Dynamic().Stats(), peer.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("cold-restored D stats %+v != peer %+v", got, want)
	}
	if len(notes()) == 0 {
		t.Fatal("vacuous: nothing delivered")
	}
}

// TestRestoreFromCorruptCheckpointFallsBack truncates the newest durable
// segment on disk: restore must not fail or panic — it falls the chain
// back a segment (replaying the difference from the firehose) and still
// converges.
func TestRestoreFromCorruptCheckpointFallsBack(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	cfg.CheckpointInterval = time.Second // checkpoint densely (stream time)
	// Disable compaction so the chain stays all-delta: the newest segment
	// is then never the base, and fallback — even all the way to scratch —
	// always has the full retained log to replay (truncation only begins
	// once bases exist). A corrupt *base* above a truncated log is the
	// documented unrecoverable case (docs/DURABILITY.md), not this test's.
	cfg.CompactEvery = 1 << 20
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(13, 40, 300)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		c.Publish(e)
	}
	// Publishing and persistence are asynchronous: wait for the replica to
	// have at least one durable segment before crashing it.
	dir := replicaCkptDir(cfg.CheckpointDir, 0, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if man, err := loadManifest(manifestPath(dir), c.runID); err == nil && len(man.segs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint segment appeared within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest segment of the (now quiescent) chain.
	man, err := loadManifest(manifestPath(dir), c.runID)
	if err != nil || len(man.segs) == 0 {
		t.Fatalf("manifest unreadable after kill: %v (%d segs)", err, len(man.segs))
	}
	path := segmentPath(dir, man.segs[len(man.segs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	// The fallback trimmed the corrupt segment out of the durable chain.
	if after, err := loadManifest(manifestPath(dir), c.runID); err != nil || len(after.segs) >= len(man.segs) {
		t.Fatalf("corrupt segment not trimmed: %v (%d -> %d segs)", err, len(man.segs), len(after.segs))
	}
	for _, e := range stream[half:] {
		c.Publish(e)
	}
	c.Stop()
	restored, _ := c.Replica(0, 0)
	peer, _ := c.Replica(0, 1)
	if got, want := restored.Engine().Dynamic().Stats(), peer.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("fallback-restored D stats %+v != peer %+v", got, want)
	}
}

// TestCheckpointFilesAreWrittenAtomically checks the on-disk layout: one
// directory per replica whose manifest names only existing segment files,
// no leftover temp files, no orphan segments outside the manifest.
func TestCheckpointFilesAreWrittenAtomically(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 4 // force at least one compaction
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, e := range motifWorkload(17, 40, 200) {
		c.Publish(e)
	}
	c.Stop()
	for pid := 0; pid < cfg.Partitions; pid++ {
		for r := 0; r < cfg.Replicas; r++ {
			dir := replicaCkptDir(cfg.CheckpointDir, pid, r)
			man, err := loadManifest(manifestPath(dir), c.runID)
			if err != nil {
				t.Fatalf("manifest for %d/%d: %v", pid, r, err)
			}
			if len(man.segs) == 0 {
				t.Fatalf("empty chain for %d/%d", pid, r)
			}
			// The audit log rides alongside the chain (recoveryConfig
			// turns the fingerprint audit on).
			named := map[string]bool{"MANIFEST": true, "audit.log": true}
			for _, seg := range man.segs {
				path := segmentPath(dir, seg)
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("manifest names missing segment %s: %v", path, err)
				}
				named[filepath.Base(path)] = true
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !named[e.Name()] {
					t.Fatalf("orphan file %s in %s", e.Name(), dir)
				}
			}
		}
	}
	tmps, err := filepath.Glob(filepath.Join(cfg.CheckpointDir, "*", "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
	if counter(t, c, "cluster.checkpoints") == 0 {
		t.Fatal("no checkpoints recorded")
	}
	if counter(t, c, "cluster.compactions") == 0 {
		t.Fatal("no compactions recorded despite CompactEvery=4")
	}
}

// TestReopenSweepsOrphanSegments plants the two orphans a crash can leave
// in a replica directory — a base at the manifest's nextSeq (a crash
// between a segment's write and its manifest rename, of the kind the next
// cut there will not overwrite) and a delta below the base (a crash between
// a compaction's manifest rename and its removals) — and checks that a restart
// removes both before the writers start, while every segment the manifest
// names, every mirror and every file that is not exactly a segment name
// stays byte for byte, and the fingerprint audit still agrees.
func TestReopenSweepsOrphanSegments(t *testing.T) {
	cfg := durableConfig(t, ringStatic(40))
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 4
	cfg.MirrorBases = 1
	stream := motifWorkload(17, 40, 300)
	half := len(stream) / 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	publishAll(t, c, stream[:half])
	c.Shutdown()

	// kept maps every file that must survive to its bytes; orphans lists
	// the planted files that must not.
	kept := map[string][]byte{}
	var orphans []string
	keep := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kept[path] = data
	}
	plant := func(path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for pid := 0; pid < cfg.Partitions; pid++ {
		for r := 0; r < cfg.Replicas; r++ {
			dir := replicaCkptDir(cfg.CheckpointDir, pid, r)
			man, err := loadManifest(manifestPath(dir), c.runID)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.segs) == 0 || man.segs[0].kind != segKindBase || man.segs[0].seq == 0 {
				t.Fatalf("vacuous: replica %d/%d has no compacted base to plant below: %+v", pid, r, man.segs)
			}
			for _, ref := range man.segs {
				keep(segmentPath(dir, ref))
			}
			base := kept[segmentPath(dir, man.segs[0])]
			for _, ref := range []segmentRef{
				{kind: segKindBase, seq: man.nextSeq},
				{kind: segKindDelta, seq: man.segs[0].seq - 1},
			} {
				path := segmentPath(dir, ref)
				plant(path, base)
				orphans = append(orphans, path)
			}
			for _, name := range []string{"base-7.seg", "delta-00000001.seg.tmp", "delta-00000001"} {
				plant(filepath.Join(dir, name), []byte("not a segment"))
				keep(filepath.Join(dir, name))
			}
			mirrors, err := filepath.Glob(filepath.Join(dir, mirrorSubdir, "*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range mirrors {
				keep(path)
			}
			plant(filepath.Join(dir, mirrorSubdir, "delta-00000000.seg"), base)
			keep(filepath.Join(dir, mirrorSubdir, "delta-00000000.seg"))
		}
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	for _, path := range orphans {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the restart (stat: %v)", path, err)
		}
	}
	for path, want := range kept {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed across the restart (read: %v)", path, err)
		}
	}
	publishAll(t, c2, stream[half:])
	c2.Shutdown()
	for pid := 0; pid < cfg.Partitions; pid++ {
		rep, err := c2.VerifyFingerprints(pid)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Compared == 0 || len(rep.Mismatches) != 0 {
			t.Fatalf("partition %d: %d offsets compared, mismatches %+v", pid, rep.Compared, rep.Mismatches)
		}
	}
}

// TestRestoredReplicaServesReadsAfterCatchUp exercises the broker gate:
// while replaying, reads never route to the stale replica; after catch-up
// they do again.
func TestRestoredReplicaServesReadsAfterCatchUp(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(19, 40, 300)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		c.Publish(e)
	}
	if err := c.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if serving(c, 0, 0) {
		t.Fatal("dead replica still serving")
	}
	if err := c.RestoreReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	// The replica serves no read until catch-up completes. The state
	// machine may already have flipped to live if replay was quick, so
	// only assert the invariant: replaying => not serving.
	if state, _ := c.ReplicaState(0, 0); state == "replaying" && serving(c, 0, 0) {
		t.Fatal("replaying replica serving")
	}
	if err := c.AwaitReplicaLive(0, 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !serving(c, 0, 0) {
		t.Fatal("live replica not serving after catch-up")
	}
	for _, e := range stream[half:] {
		c.Publish(e)
	}
	c.Stop()
	// Both replicas healthy: reads for partition-0 users succeed.
	served := 0
	for a := graph.VertexID(0); a < 40; a++ {
		if c.part.PartitionOf(a) != 0 {
			continue
		}
		if recs, err := c.RecommendationsFor(a); err == nil && len(recs) > 0 {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no partition-0 reads served after recovery")
	}
}

// TestRepeatedKillRestoreCycles stresses the state machine: several
// sequential crash/recover cycles against a flowing stream, alternating
// replicas, must keep converging.
func TestRepeatedKillRestoreCycles(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	cfg.CheckpointInterval = 5 * time.Second
	notes := collectNotes(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(23, 40, 800)
	chunk := len(stream) / 8
	kills := 0
	for i, e := range stream {
		if i > 0 && i%chunk == 0 {
			// Alternate crash and recover on replica 1 at each boundary,
			// waiting out catch-up so every cycle starts from full health.
			if state, _ := c.ReplicaState(0, 1); state == "dead" {
				if err := c.RestoreReplica(0, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.AwaitReplicaLive(0, 1, 30*time.Second); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := c.KillReplica(0, 1); err != nil {
					t.Fatal(err)
				}
				kills++
			}
		}
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	// Restore if the last cycle left the replica dead, so the run drains
	// to full health.
	if state, _ := c.ReplicaState(0, 1); state == "dead" {
		if err := c.RestoreReplica(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.Stop()
	if kills < 3 {
		t.Fatalf("only %d kill cycles ran", kills)
	}
	for r := 0; r < 2; r++ {
		if state, _ := c.ReplicaState(0, r); state != "live" {
			t.Fatalf("replica %d state = %q after drain", r, state)
		}
	}
	a, _ := c.Replica(0, 0)
	b, _ := c.Replica(0, 1)
	if got, want := a.Engine().Dynamic().Stats(), b.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("replicas diverged after cycles: %+v != %+v", got, want)
	}
	if len(notes()) == 0 {
		t.Fatal("vacuous: nothing delivered")
	}
	if n := counter(t, c, "cluster.restores"); n < uint64(kills) {
		t.Fatalf("cluster.restores = %d for %d kills", n, kills)
	}
}

// TestRestoreIgnoresForeignRunCheckpoints reuses a checkpoint directory
// across two cluster runs, each over its own firehose log: the second run's
// restore must not resurrect the first run's state — its offsets index
// another log — and must instead replay its own log from scratch.
func TestRestoreIgnoresForeignRunCheckpoints(t *testing.T) {
	dir := t.TempDir()
	static := ringStatic(40)
	newCfg := func() Config {
		cfg := recoveryConfig(t, static)
		cfg.CheckpointDir = dir
		cfg.LogDir = t.TempDir()
		cfg.CheckpointInterval = time.Second
		return cfg
	}

	// Run 1: a long stream, checkpoints land on disk.
	c1, err := New(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	c1.Start()
	for _, e := range motifWorkload(41, 40, 400) {
		c1.Publish(e)
	}
	c1.Stop()
	if counter(t, c1, "cluster.checkpoints") == 0 {
		t.Fatal("run 1 wrote no checkpoints")
	}

	// Run 2: same dir, much shorter stream. Restore must ignore run 1's
	// files (their offsets exceed run 2's head) and converge to the peer.
	c2, err := New(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	stream := motifWorkload(43, 40, 60)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		c2.Publish(e)
	}
	if err := c2.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c2.RestoreReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range stream[half:] {
		c2.Publish(e)
	}
	c2.Stop()
	if state, _ := c2.ReplicaState(0, 1); state != "live" {
		t.Fatalf("state = %q after drain", state)
	}
	restored, _ := c2.Replica(0, 1)
	peer, _ := c2.Replica(0, 0)
	if got, want := restored.Engine().Dynamic().Stats(), peer.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("restored replica diverged (foreign state resurrected?): %+v != %+v", got, want)
	}
}

// TestConcurrentKillRestoreIsSerialized hammers the lifecycle API from
// many goroutines: no panics (double close), and the last-alive guard
// must hold — both replicas can never be dead at once.
func TestConcurrentKillRestoreIsSerialized(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, e := range motifWorkload(31, 40, 100) {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			victim := g % 2
			for i := 0; i < 50; i++ {
				c.KillReplica(0, victim)    // errors expected, panics not
				c.RestoreReplica(0, victim) // ditto
			}
		}(g)
	}
	wg.Wait()
	aDead, _ := c.ReplicaState(0, 0)
	bDead, _ := c.ReplicaState(0, 1)
	if aDead == "dead" && bDead == "dead" {
		t.Fatal("both replicas dead: last-alive guard violated under concurrency")
	}
	// Drain to full health and stop cleanly.
	for r := 0; r < 2; r++ {
		if state, _ := c.ReplicaState(0, r); state == "dead" {
			if err := c.RestoreReplica(0, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Stop()
}

// TestRecoveryStatsString smoke-checks the state names.
func TestRecoveryStatsString(t *testing.T) {
	cfg := recoveryConfig(t, fig1Static())
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for _, want := range []string{"live"} {
		got, err := c.ReplicaState(0, 0)
		if err != nil || got != want {
			t.Fatalf("ReplicaState = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := c.ReplicaState(7, 7); err == nil {
		t.Fatal("out-of-range state query accepted")
	}
	_ = fmt.Sprintf("%v", c.Stats())
}
