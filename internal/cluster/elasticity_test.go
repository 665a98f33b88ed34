package cluster

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"motifstream/internal/audit"
	"motifstream/internal/codecutil"
	"motifstream/internal/core"
	"motifstream/internal/graph"
	"motifstream/internal/partition"
	"motifstream/internal/placement"
	"motifstream/internal/statstore"
)

// The elasticity suite covers the placement subsystem's mechanisms
// directly: lifecycle guards, live scale-out/in, node replacement, base
// replication (including recovery of the previously documented
// unrecoverable corner), torn mirror pushes, and the auto-healer driving
// a real cluster. Oracle-equivalence under these faults lives in
// crashmatrix_test.go.

func TestElasticValidation(t *testing.T) {
	plain, err := New(testConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.AddReplica(0); err != ErrRecoveryDisabled {
		t.Fatalf("AddReplica without CheckpointDir = %v", err)
	}
	if err := plain.ReprovisionReplica(0, 0); err != ErrRecoveryDisabled {
		t.Fatalf("ReprovisionReplica without CheckpointDir = %v", err)
	}
	if err := plain.DecommissionReplica(0, 0); err != ErrRecoveryDisabled {
		t.Fatalf("DecommissionReplica without CheckpointDir = %v", err)
	}

	cfg := recoveryConfig(t, ringStatic(40))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddReplica(0); err == nil {
		t.Fatal("AddReplica before Start accepted")
	}
	if err := c.ReprovisionReplica(0, 0); err == nil {
		t.Fatal("ReprovisionReplica before Start accepted")
	}
	c.Start()
	defer c.Stop()

	if _, err := c.AddReplica(99); err == nil {
		t.Fatal("out-of-range AddReplica accepted")
	}
	if err := c.DecommissionReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if state, _ := c.ReplicaState(0, 1); state != "removed" {
		t.Fatalf("decommissioned state = %q", state)
	}
	if err := c.DecommissionReplica(0, 1); err == nil {
		t.Fatal("double decommission accepted")
	}
	if err := c.KillReplica(0, 1); err == nil {
		t.Fatal("killing a decommissioned replica accepted")
	}
	if err := c.RestoreReplica(0, 1); err == nil {
		t.Fatal("restoring a decommissioned replica accepted")
	}
	if err := c.ReprovisionReplica(0, 1); err == nil {
		t.Fatal("reprovisioning a decommissioned replica accepted")
	}
	if _, err := c.Replica(0, 1); err == nil {
		t.Fatal("Replica() on a decommissioned slot accepted")
	}
	if err := c.DecommissionReplica(0, 0); err == nil {
		t.Fatal("decommissioning the last alive replica accepted")
	}
	if err := c.ReprovisionReplica(0, 0); err == nil {
		t.Fatal("reprovisioning the last alive replica accepted")
	}
	// Scale back out: the tombstone's index is never reused.
	idx, err := c.AddReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("AddReplica reused index %d", idx)
	}
	if err := c.AwaitReplicaLive(0, idx, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// With the newcomer alive, the formerly-last replica may be replaced.
	if err := c.ReprovisionReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitReplicaLive(0, 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAddReplicaCatchesUpAndServes pins live scale-out end to end: the
// new replica replays the stream so far, converges with its peers, and
// the broker serves reads from it.
func TestAddReplicaCatchesUpAndServes(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 2
	cfg.MirrorBases = 1
	notes := collectNotes(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(61, 40, 400)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		c.Publish(e)
	}
	idx, err := c.AddReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != cfg.Replicas {
		t.Fatalf("new replica index %d, want %d", idx, cfg.Replicas)
	}
	if err := c.AwaitReplicaLive(0, idx, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if !serving(c, 0, idx) {
		t.Fatal("scaled-out replica not serving after catch-up")
	}
	for _, e := range stream[half:] {
		c.Publish(e)
	}
	c.Stop()
	added, err := c.Replica(0, idx)
	if err != nil {
		t.Fatal(err)
	}
	peer, _ := c.Replica(0, 0)
	if got, want := added.Engine().Dynamic().Stats(), peer.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("scaled-out replica diverged: %+v != %+v", got, want)
	}
	if len(notes()) == 0 {
		t.Fatal("vacuous: nothing delivered")
	}
	if n := counter(t, c, "cluster.scale_outs"); n != 1 {
		t.Fatalf("cluster.scale_outs = %d", n)
	}
}

// TestAddReplicaRefusesDivergedPoolBase pins the go-live fingerprint gate
// with fingerprints that actually distinguish states: the pool's newest
// restore point is a base whose checksum trailer holds — so the byte-level
// CRC gate passes it — but which encodes a state the audit log says no
// replica held at that offset (one flipped bit between the recorded
// fingerprint and the base's own). The newcomer must refuse to go live,
// count the mismatch, stay dead, and install nothing.
func TestAddReplicaRefusesDivergedPoolBase(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for _, e := range motifWorkload(66, 40, 100) {
		c.Publish(e)
	}
	// Killing the replica quiesces its directory (consumer and writer are
	// stopped), so the plant below races nothing; the stream is idle, so
	// the head — the newest offset a pool base may claim — stays put.
	if err := c.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	head := c.hub.firehose.Published()
	dir := c.hub.slots[0][1].dir
	planted := writeMirror(t, dir, c.runID, head, false)
	data, err := os.ReadFile(planted.path)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := baseFingerprint(data)
	if !ok {
		t.Fatal("planted base fails its own checksum")
	}
	alog, err := audit.Open(auditLogPath(dir), c.runID)
	if err != nil {
		t.Fatal(err)
	}
	if err := alog.Append(audit.Record{Offset: head, Sum: fp ^ 1}); err != nil {
		t.Fatal(err)
	}
	alog.Close()

	idx, err := c.AddReplica(0)
	if err == nil || !strings.Contains(err.Error(), "refusing go-live") {
		t.Fatalf("AddReplica over a diverged pool base = %v, want a go-live refusal", err)
	}
	if state, _ := c.ReplicaState(0, idx); state != "dead" {
		t.Fatalf("refused newcomer is %q, want dead", state)
	}
	if mm, pool := counter(t, c, "cluster.audit_mismatches"), counter(t, c, "cluster.base_pool_restores"); mm != 1 || pool != 0 {
		t.Fatalf("mismatches=%d pool restores=%d, want 1 and 0", mm, pool)
	}
	if man, err := loadManifest(manifestPath(c.hub.slots[0][idx].dir), c.runID); err != nil || len(man.segs) != 0 {
		t.Fatalf("refused newcomer's chain was seeded anyway: %v (err %v)", man.segs, err)
	}
	// Once the pool heals (the diverged base is gone) the operator's retry
	// goes through, from a restore point the audit agrees with.
	if err := os.Remove(planted.path); err != nil {
		t.Fatal(err)
	}
	if err := c.ReprovisionReplica(0, idx); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitReplicaLive(0, idx, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := counter(t, c, "cluster.audit_mismatches"); n != 1 {
		t.Fatalf("healed retry counted %d mismatches, want still 1", n)
	}
}

// TestReopenRebuildsElasticTopology pins that membership and generations
// survive a whole-cluster restart: a reopened cluster rebuilds the added
// replica, keeps the tombstone gone, and opens the reprovisioned
// replica's generation directory.
func TestReopenRebuildsElasticTopology(t *testing.T) {
	static := ringStatic(40)
	cfg := durableConfig(t, static)
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 2
	cfg.MirrorBases = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(62, 40, 400)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		c.Publish(e)
	}
	idx, err := c.AddReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitReplicaLive(0, idx, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.DecommissionReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.ReprovisionReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitReplicaLive(1, 1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	reprovHead := c.hub.firehose.Published()
	threeQ := 3 * len(stream) / 4
	for _, e := range stream[half:threeQ] {
		c.Publish(e)
	}
	c.Shutdown()
	// The reprovisioned replica's writer must have followed the slot to
	// its generation directory: no failed segment writes, and a chain in
	// the new dir whose head advanced past the reprovision point (cuts
	// kept landing after the replacement).
	if n := c.ckptErrors.Value(); n != 0 {
		t.Fatalf("%d checkpoint errors after reprovision (writer in the wrong directory?)", n)
	}
	man, err := loadManifest(manifestPath(placement.Dir(cfg.CheckpointDir, 1, 1, 1)), c.runID)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.segs) == 0 || man.segs[len(man.segs)-1].offset <= reprovHead {
		t.Fatalf("reprovisioned replica's chain never advanced past offset %d (%d segments)", reprovHead, len(man.segs))
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	if n := c2.Replicas(0); n != 3 {
		t.Fatalf("reopened partition 0 has %d replicas, want 3", n)
	}
	if state, _ := c2.ReplicaState(0, 1); state != "removed" {
		t.Fatalf("tombstone resurrected: state = %q", state)
	}
	slot, err := c2.slot(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slot.gen != 1 {
		t.Fatalf("reprovisioned replica reopened at generation %d, want 1", slot.gen)
	}
	if want := placement.Dir(cfg.CheckpointDir, 1, 1, 1); slot.dir != want {
		t.Fatalf("reopened dir %q, want %q", slot.dir, want)
	}
	for _, e := range stream[threeQ:] {
		c2.Publish(e)
	}
	c2.Stop()
	// Every surviving replica of partition 0 converges.
	ref, err := c2.Replica(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Engine().Dynamic().Stats()
	for _, r := range []int{2} {
		p, err := c2.Replica(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Engine().Dynamic().Stats(); got != want {
			t.Fatalf("replica 0/%d diverged after reopen: %+v != %+v", r, got, want)
		}
	}
}

// TestReopenAllBasesCorruptRecoversViaMirrors upgrades the documented
// unrecoverable corner (corrupt base above a truncated log ⇒
// ErrTruncated): with base replication on, every replica's own chain base
// can be corrupted — above a truncated log — and the reopen still
// recovers from the mirrors peers pushed, delivering exactly the oracle
// set. The mirror-less variant of this scenario is pinned as ErrTruncated
// by TestReopenCorruptBaseAboveTruncatedLogFails.
func TestReopenAllBasesCorruptRecoversViaMirrors(t *testing.T) {
	const users = 40
	static := ringStatic(users)
	stream := motifWorkload(63, users, 400)

	newCfg := func() Config {
		cfg := durableConfig(t, static)
		cfg.CheckpointInterval = time.Second
		cfg.CompactEvery = 2
		cfg.MirrorBases = 1
		cfg.LogSegmentBytes = 2 << 10
		return cfg
	}

	oracleCfg := newCfg()
	oracleNotes := collectNotes(&oracleCfg)
	oracle, err := New(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Start()
	for _, e := range stream {
		oracle.Publish(e)
	}
	oracle.Stop()

	faultCfg := newCfg()
	faultNotes := collectNotes(&faultCfg)
	h := newCrashHarness(t, faultCfg, stream)
	h.publishTo(1.0)
	h.c.Shutdown()
	if below, mirrors := h.c.Stats().LogTruncatedBelow, counter(t, h.c, "cluster.base_mirrors"); below == 0 || mirrors == 0 {
		t.Fatalf("vacuous: truncated below %d, mirrors %d", below, mirrors)
	}

	// Corrupt every replica's own chain base; leave the mirrors alone.
	corrupted := 0
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		for r := 0; r < faultCfg.Replicas; r++ {
			dir := replicaCkptDir(faultCfg.CheckpointDir, pid, r)
			man, err := loadManifest(manifestPath(dir), h.c.runID)
			if err != nil || len(man.segs) == 0 || man.segs[0].kind != segKindBase {
				continue
			}
			flipByte(t, segmentPath(dir, man.segs[0]))
			corrupted++
		}
	}
	if corrupted != faultCfg.Partitions*faultCfg.Replicas {
		t.Fatalf("corrupted %d bases, want %d", corrupted, faultCfg.Partitions*faultCfg.Replicas)
	}

	c, err := New(faultCfg)
	if err != nil {
		t.Fatalf("restart over corrupt bases with mirrors available: %v", err)
	}
	c.Start()
	h.c = c
	if counter(t, c, "cluster.base_pool_restores") == 0 {
		t.Fatal("vacuous: nothing recovered via the base pool")
	}
	h.finish()

	assertSameNotes(t, oracleNotes(), faultNotes())
	assertConverged(t, h.c, oracle, faultCfg)
}

// TestReopenRecoversDespiteTornMirrorWrites is the errfs-lite crash case:
// every mirror push from replica 0 is torn mid-Write (the pusher's
// machine "crashes" inside the write, leaving a half file on the peer's
// disk). Recovery must CRC-gate the torn mirrors, recover from the intact
// ones, and stay oracle-equivalent.
func TestReopenRecoversDespiteTornMirrorWrites(t *testing.T) {
	const users = 40
	static := ringStatic(users)
	stream := motifWorkload(64, users, 400)

	newCfg := func() Config {
		cfg := durableConfig(t, static)
		cfg.CheckpointInterval = time.Second
		cfg.CompactEvery = 2
		cfg.MirrorBases = 1
		cfg.LogSegmentBytes = 2 << 10
		return cfg
	}

	// Oracle runs before the fault hook is armed (the hook is package
	// scoped and writers read it concurrently).
	oracleCfg := newCfg()
	oracleNotes := collectNotes(&oracleCfg)
	oracle, err := New(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Start()
	for _, e := range stream {
		oracle.Publish(e)
	}
	oracle.Stop()

	// Arm the injector: every mirror push sourced from replica 0 fails
	// inside its first Write, leaving a torn file.
	orig := openSegFile
	openSegFile = func(path string) (codecutil.WriteSyncCloser, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		// mirror-<log id>-r00-…: the id is the fresh log's, unknown here.
		if name := filepath.Base(path); strings.HasPrefix(name, "mirror-") && strings.Contains(name, "-r00-") {
			return &codecutil.FailNth{F: f, FailWriteAt: 1}, nil
		}
		return f, nil
	}
	defer func() { openSegFile = orig }()

	faultCfg := newCfg()
	faultNotes := collectNotes(&faultCfg)
	h := newCrashHarness(t, faultCfg, stream)
	h.publishTo(1.0)
	h.c.Shutdown()
	if below, mirrors := h.c.Stats().LogTruncatedBelow, counter(t, h.c, "cluster.base_mirrors"); below == 0 || mirrors == 0 {
		t.Fatalf("vacuous: truncated below %d, intact mirrors %d", below, mirrors)
	}

	// Replica 1's directories hold only replica 0's pushes — every one of
	// them torn — and the tear really left half files behind.
	torn := 0
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		mdir := filepath.Join(replicaCkptDir(faultCfg.CheckpointDir, pid, 1), mirrorSubdir)
		entries, err := os.ReadDir(mdir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(mdir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if checksumOK(data) {
				t.Fatalf("mirror %s survived the injected tear intact", e.Name())
			}
			torn++
		}
	}
	if torn == 0 {
		t.Fatal("vacuous: no torn mirror files on disk")
	}

	// Corrupt every primary base: recovery must come from the pool, and
	// the torn mirrors must be skipped for the intact ones.
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		for r := 0; r < faultCfg.Replicas; r++ {
			dir := replicaCkptDir(faultCfg.CheckpointDir, pid, r)
			man, err := loadManifest(manifestPath(dir), h.c.runID)
			if err != nil || len(man.segs) == 0 || man.segs[0].kind != segKindBase {
				t.Fatalf("replica %d/%d has no base to corrupt", pid, r)
			}
			flipByte(t, segmentPath(dir, man.segs[0]))
		}
	}

	c, err := New(faultCfg)
	if err != nil {
		t.Fatalf("restart with only torn+intact mirrors: %v", err)
	}
	c.Start()
	h.c = c
	if counter(t, c, "cluster.base_pool_restores") == 0 {
		t.Fatal("vacuous: nothing recovered via the base pool")
	}
	h.finish()

	assertSameNotes(t, oracleNotes(), faultNotes())
	assertConverged(t, h.c, oracle, faultCfg)
}

// TestMirrorOnlySurvivorReplaysAfterTruncation pins the truncation
// floor's mirror-awareness. The regression it guards: maybeTruncateLog
// once counted only replica chain floors, so a stale-but-intact mirror —
// every newer push from its source torn mid-write — fell below the
// truncation horizon while both replicas' own floors marched on. The
// moment those chains corrupt, that mirror is the partition's only
// restore point, and with the log truncated past its offset the replay
// gap is gone for good. The floor must therefore count each source's
// newest intact mirror as a restore point.
func TestMirrorOnlySurvivorReplaysAfterTruncation(t *testing.T) {
	const users = 40
	static := ringStatic(users)
	stream := motifWorkload(65, users, 400)

	newCfg := func() Config {
		cfg := durableConfig(t, static)
		cfg.CheckpointInterval = time.Second
		cfg.CompactEvery = 2
		cfg.MirrorBases = 1
		cfg.LogSegmentBytes = 2 << 10
		return cfg
	}

	oracleCfg := newCfg()
	oracleNotes := collectNotes(&oracleCfg)
	oracle, err := New(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Start()
	for _, e := range stream {
		oracle.Publish(e)
	}
	oracle.Stop()

	// Install the injector before the cluster starts (the hook is package
	// scoped and writers read it concurrently); the tear switches on
	// mid-run via the atomic flag.
	var tear atomic.Bool
	orig := openSegFile
	openSegFile = func(path string) (codecutil.WriteSyncCloser, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if tear.Load() && strings.HasPrefix(filepath.Base(path), "mirror-") {
			return &codecutil.FailNth{F: f, FailWriteAt: 1}, nil
		}
		return f, nil
	}
	defer func() { openSegFile = orig }()

	faultCfg := newCfg()
	faultNotes := collectNotes(&faultCfg)
	h := newCrashHarness(t, faultCfg, stream)
	h.publishTo(0.5)

	// Wait until every partition hosts at least one CRC-intact mirror;
	// those are the replay points that must survive truncation.
	intactMirrors := func(pid int) map[int]uint64 {
		// Newest intact mirror offset per source, across the partition's
		// replica directories — the floor scan's view of the pool.
		out := map[int]uint64{}
		for r := 0; r < faultCfg.Replicas; r++ {
			mdir := filepath.Join(replicaCkptDir(faultCfg.CheckpointDir, pid, r), mirrorSubdir)
			entries, err := os.ReadDir(mdir)
			if err != nil {
				continue
			}
			for _, e := range entries {
				idx, off, ok := parseMirrorName(e.Name(), h.c.runID)
				if !ok || off <= out[idx] {
					continue
				}
				if data, err := os.ReadFile(filepath.Join(mdir, e.Name())); err == nil && checksumOK(data) {
					out[idx] = off
				}
			}
		}
		return out
	}
	deadline := time.Now().Add(30 * time.Second)
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		for len(intactMirrors(pid)) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("partition %d never hosted an intact mirror", pid)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Let the horizon pass zero before freezing the mirrors, so the
	// truncation machinery is demonstrably live in this run — otherwise
	// "the mirror was respected" would be indistinguishable from "nothing
	// ever truncated".
	h.waitForBases(0)
	h.waitForBases(1)
	h.waitForTruncation()

	// Arm the tear: from here every mirror push, from every source,
	// tears mid-write. The intact mirrors freeze at their mid-stream
	// offsets while both replicas' chain floors keep advancing.
	tear.Store(true)

	h.publishTo(1.0)
	h.c.Shutdown()

	st := h.c.Stats()
	if st.LogTruncatedBelow == 0 {
		t.Fatal("vacuous: the log was never truncated")
	}
	// The floor respected every frozen intact mirror, and for at least
	// one partition a chain floor advanced strictly past its pool's
	// replay point — i.e. the mirror really was the binding constraint
	// the old floor ignored.
	binding := false
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		for src, off := range intactMirrors(pid) {
			if off < st.LogTruncatedBelow {
				t.Fatalf("partition %d: intact mirror from r%02d at offset %d fell below the horizon %d",
					pid, src, off, st.LogTruncatedBelow)
			}
			for r := 0; r < faultCfg.Replicas; r++ {
				dir := replicaCkptDir(faultCfg.CheckpointDir, pid, r)
				if man, err := loadManifest(manifestPath(dir), h.c.runID); err == nil && man.floorOffset() > off {
					binding = true
				}
			}
		}
	}
	if !binding {
		t.Fatal("vacuous: no chain floor ever advanced past a frozen mirror")
	}

	// Corrupt every primary base: the frozen mirrors become the only
	// restore points, and recovery must replay the log from their
	// offsets — the span the old floor would have truncated away.
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		for r := 0; r < faultCfg.Replicas; r++ {
			dir := replicaCkptDir(faultCfg.CheckpointDir, pid, r)
			man, err := loadManifest(manifestPath(dir), h.c.runID)
			if err != nil || len(man.segs) == 0 || man.segs[0].kind != segKindBase {
				t.Fatalf("replica %d/%d has no base to corrupt", pid, r)
			}
			flipByte(t, segmentPath(dir, man.segs[0]))
		}
	}

	c, err := New(faultCfg)
	if err != nil {
		t.Fatalf("restart with only stale mirrors: %v", err)
	}
	c.Start()
	h.c = c
	if counter(t, c, "cluster.base_pool_restores") == 0 {
		t.Fatal("vacuous: nothing recovered via the base pool")
	}
	h.finish()

	assertSameNotes(t, oracleNotes(), faultNotes())
	assertConverged(t, h.c, oracle, faultCfg)
}

// TestForeignMirrorsNeverInstalled reuses a checkpoint directory under a
// fresh firehose log: the first cluster leaves base mirrors in its replica
// directories, whose offsets index its own log. A reprovision under the
// second log must not install one — mirrors carry the log identity in their
// name, like a manifest's gating id — and replays its own log instead,
// converging to its peer.
func TestForeignMirrorsNeverInstalled(t *testing.T) {
	const users = 40
	cfg := durableConfig(t, ringStatic(users))
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 2
	cfg.MirrorBases = 1
	cfg.LogSegmentBytes = 2 << 10
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Start()
	for _, e := range motifWorkload(63, users, 400) {
		first.Publish(e)
	}
	first.Shutdown()
	if counter(t, first, "cluster.base_mirrors") == 0 {
		t.Fatal("vacuous: the first cluster mirrored no base")
	}

	// Same CheckpointDir, fresh log, an interval the stream never reaches:
	// the second cluster cuts nothing, so the foreign mirrors are the only
	// bases on disk.
	cfg.LogDir = t.TempDir()
	cfg.CheckpointInterval = time.Hour
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, e := range motifWorkload(99, users, 600) {
		c.Publish(e)
	}
	if err := c.ReprovisionReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitReplicaLive(0, 1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if n := counter(t, c, "cluster.base_pool_restores"); n != 0 {
		t.Fatalf("cluster.base_pool_restores = %d: a mirror of another log was installed", n)
	}
	replicaFingerprint := func(r int) uint32 {
		p, err := c.Replica(0, r)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(p)
	}
	if got, want := replicaFingerprint(1), replicaFingerprint(0); got != want {
		t.Fatalf("reprovisioned replica fingerprint %08x, peer %08x", got, want)
	}
}

// mirrorTestConfig is the mirror tests' deployment: two partitions of two
// replicas, each compacting every second delta and pushing every base to
// one peer, over a log small enough to truncate mid-stream.
func mirrorTestConfig(t *testing.T, users int) Config {
	cfg := durableConfig(t, ringStatic(users))
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 2
	cfg.MirrorBases = 1
	cfg.LogSegmentBytes = 2 << 10
	return cfg
}

// newestIntactMirrors maps each source index to the offset of its newest
// CRC-intact mirror in replica r's directory of partition pid.
func newestIntactMirrors(c *Cluster, pid, r int) map[int]uint64 {
	out := map[int]uint64{}
	mdir := filepath.Join(replicaCkptDir(c.cfg.CheckpointDir, pid, r), mirrorSubdir)
	entries, _ := os.ReadDir(mdir)
	for _, e := range entries {
		idx, off, ok := parseMirrorName(e.Name(), c.runID)
		if !ok || off <= out[idx] {
			continue
		}
		if data, err := os.ReadFile(filepath.Join(mdir, e.Name())); err == nil && checksumOK(data) {
			out[idx] = off
		}
	}
	return out
}

// TestMirrorOfRemovedSourceDoesNotPinLog recreates what a crash inside
// DecommissionReplica leaves — the tombstone saved, the removed source's
// mirrors still in its peers' directories — by putting one back after the
// decommission. No replica accounts for that orphan, so the log truncates
// past it; it stays in the base pool, where a restore may still use it
// while the log extends it.
func TestMirrorOfRemovedSourceDoesNotPinLog(t *testing.T) {
	const users = 40
	cfg := mirrorTestConfig(t, users)
	h := newCrashHarness(t, cfg, motifWorkload(66, users, 400))
	h.publishTo(0.5)

	// Keep a copy of replica 1's newest intact push into replica 0's
	// directory, per partition.
	orphans := map[string][]byte{}
	deadline := time.Now().Add(30 * time.Second)
	for pid := 0; pid < cfg.Partitions; pid++ {
		for {
			if off, ok := newestIntactMirrors(h.c, pid, 0)[1]; ok {
				path := filepath.Join(replicaCkptDir(cfg.CheckpointDir, pid, 0), mirrorSubdir, mirrorName(h.c.runID, 1, off))
				if data, err := os.ReadFile(path); err == nil && checksumOK(data) {
					orphans[path] = data
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("partition %d: replica 1 never mirrored a base to replica 0", pid)
			}
			time.Sleep(time.Millisecond)
		}
	}
	h.decommissionAll(1)
	for path, data := range orphans {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h.publishTo(1.0)
	h.c.Shutdown()

	below := h.c.Stats().LogTruncatedBelow
	for path := range orphans {
		_, off, _ := parseMirrorName(filepath.Base(path), h.c.runID)
		if off >= below {
			t.Fatalf("orphaned mirror %s at offset %d pins the log: truncated below %d", filepath.Base(path), off, below)
		}
	}
	for pid := 0; pid < cfg.Partitions; pid++ {
		pool := basePool(h.c.host.placed(pid), h.c.runID)
		if !slices.ContainsFunc(pool, func(b baseSource) bool { _, ok := orphans[b.path]; return ok }) {
			t.Fatalf("partition %d: the orphaned mirror left the base pool %v", pid, pool)
		}
	}
}

// TestMirrorFrozenByTearBoundsLogAfterReopen checks the rebuild of each
// replica's mirrored table: mirrors frozen mid-run by torn pushes (as in
// TestMirrorOnlySurvivorReplaysAfterTruncation) must keep bounding the
// log's truncation after a Shutdown, a restart and more publishing, while
// the chain floors move past them.
func TestMirrorFrozenByTearBoundsLogAfterReopen(t *testing.T) {
	const users = 40
	cfg := mirrorTestConfig(t, users)
	var tear atomic.Bool
	orig := openSegFile
	openSegFile = func(path string) (codecutil.WriteSyncCloser, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if tear.Load() && strings.HasPrefix(filepath.Base(path), "mirror-") {
			return &codecutil.FailNth{F: f, FailWriteAt: 1}, nil
		}
		return f, nil
	}
	defer func() { openSegFile = orig }()

	h := newCrashHarness(t, cfg, motifWorkload(67, users, 400))
	h.publishTo(0.4)
	h.waitForBases(0)
	h.waitForBases(1)
	h.waitForTruncation()
	deadline := time.Now().Add(30 * time.Second)
	for pid := 0; pid < cfg.Partitions; pid++ {
		for len(newestIntactMirrors(h.c, pid, 0))+len(newestIntactMirrors(h.c, pid, 1)) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("partition %d never hosted an intact mirror", pid)
			}
			time.Sleep(time.Millisecond)
		}
	}
	tear.Store(true)
	h.publishTo(0.6)
	h.restart()
	h.publishTo(1.0)
	h.c.Shutdown()

	below := h.c.Stats().LogTruncatedBelow
	if below == 0 {
		t.Fatal("vacuous: the log was never truncated")
	}
	binding := false
	for pid := 0; pid < cfg.Partitions; pid++ {
		for r := 0; r < cfg.Replicas; r++ {
			for src, off := range newestIntactMirrors(h.c, pid, r) {
				if off < below {
					t.Fatalf("partition %d: frozen mirror from r%02d at offset %d fell below the horizon %d", pid, src, off, below)
				}
				man, err := loadManifest(manifestPath(replicaCkptDir(cfg.CheckpointDir, pid, src)), h.c.runID)
				binding = binding || err == nil && man.floorOffset() > off
			}
		}
	}
	if !binding {
		t.Fatal("vacuous: no chain floor advanced past a frozen mirror")
	}
}

// TestReprovisionKeepsSharing is the regression for the replacement node's
// partition constructor building its engine from less than the replicas New
// built were given: a reprovisioned or scaled-out replica must run the same
// share groups as its peers.
func TestReprovisionKeepsSharing(t *testing.T) {
	cfg := recoveryConfig(t, fanStatic(40))
	cfg.NewPrograms = multiQueryPrograms(t, 1)

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for _, e := range multiTypeWorkload(65, 40, 50) {
		c.Publish(e)
	}
	if err := c.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.ReprovisionReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	added, err := c.AddReplica(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	var peer core.SharingStats
	for i, slot := range [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, added}} {
		if err := c.AwaitReplicaLive(slot[0], slot[1], 30*time.Second); err != nil {
			t.Fatal(err)
		}
		p, err := c.Replica(slot[0], slot[1])
		if err != nil {
			t.Fatal(err)
		}
		sh := p.Engine().Sharing()
		if i == 0 {
			if peer = sh; peer.Groups == 0 {
				t.Fatalf("vacuous: the untouched replica shares nothing: %+v", peer)
			}
		} else if sh != peer {
			t.Errorf("replica %d/%d runs %+v, its untouched peer %+v", slot[0], slot[1], sh, peer)
		}
	}
	// S is a function of configuration alone: a reprovisioned, a restored
	// and a scaled-out replica serve the very build their untouched peer
	// serves, one per (host, partition).
	for _, slot := range [][2]int{{0, 1}, {1, 1}, {1, added}} {
		assertSameStatic(t, c, slot[0], slot[1])
	}
}

// assertSameStatic fails unless replica pid/r serves the very Snapshot — S
// and the already-follows index — that replica pid/0 serves, and that
// Snapshot is partition pid's.
func assertSameStatic(t *testing.T, c *Cluster, pid, r int) {
	t.Helper()
	peer, err := c.Replica(pid, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Replica(pid, r)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Engine().Static().Snapshot(), peer.Engine().Static().Snapshot(); got != want {
		t.Fatalf("replica %d/%d serves a build of S of its own, not the one replica %d/0 serves", pid, r, pid)
	}
	assertStaticOf(t, c.cfg, pid, p.Engine().Static().Snapshot())
}

// assertStaticOf fails unless snap serves what a fresh build of partition
// pid from cfg serves: the same S, with the same follower list for every B
// of the configured edges, and the same answer to every configured follow.
func assertStaticOf(t *testing.T, cfg Config, pid int, snap *statstore.Snapshot) {
	t.Helper()
	part := partition.NewHashPartitioner(cfg.Partitions)
	want := (&statstore.Builder{
		Keep:           func(a graph.VertexID) bool { return part.PartitionOf(a) == pid },
		MaxInfluencers: cfg.MaxInfluencers,
	}).Build(cfg.StaticEdges)
	if want.NumEdges() == 0 {
		t.Fatalf("vacuous: partition %d's S is empty", pid)
	}
	if snap.NumEdges() != want.NumEdges() {
		t.Fatalf("partition %d serves S with %d edges, a fresh build has %d", pid, snap.NumEdges(), want.NumEdges())
	}
	for _, e := range cfg.StaticEdges {
		if b := e.Dst; !slices.Equal(snap.Followers(b), want.Followers(b)) {
			t.Fatalf("partition %d: followers of %d = %v, a fresh build's %v", pid, b, snap.Followers(b), want.Followers(b))
		}
		if got := snap.Follows(e.Src, e.Dst); got != want.Follows(e.Src, e.Dst) {
			t.Fatalf("partition %d: Follows(%d, %d) = %v, a fresh build says %v", pid, e.Src, e.Dst, got, !got)
		}
	}
}

// TestHealerReprovisionsOnRealCluster wires the placement auto-healer to
// a live cluster: a killed replica is re-provisioned and returns to live
// without any operator call.
func TestHealerReprovisionsOnRealCluster(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 2
	cfg.MirrorBases = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, e := range motifWorkload(66, 40, 200) {
		c.Publish(e)
	}
	var healed atomic.Uint64
	healer := placement.NewHealer(c, placement.HealerOptions{
		After: 50 * time.Millisecond,
		OnHeal: func(_, _ int, err error) {
			if err == nil {
				healed.Add(1)
			}
		},
	})
	healer.Start()
	if err := c.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if state, _ := c.ReplicaState(0, 1); state == "live" {
			break
		}
		if time.Now().After(deadline) {
			state, _ := c.ReplicaState(0, 1)
			t.Fatalf("healer never revived replica 0/1 (state %q)", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
	healer.Stop() // before Stop: lifecycle calls must not race shutdown
	c.Stop()
	if healed.Load() == 0 {
		t.Fatal("healer reports zero heals")
	}
	if counter(t, c, "cluster.reprovisions") == 0 {
		t.Fatal("no reprovision recorded")
	}
	restored, _ := c.Replica(0, 1)
	peer, _ := c.Replica(0, 0)
	if got, want := restored.Engine().Dynamic().Stats(), peer.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("healed replica diverged: %+v != %+v", got, want)
	}
}

// BenchmarkReprovision measures a full node replacement round: tear down
// a live replica, provision a fresh node from the partition's base pool,
// and replay to live.
func BenchmarkReprovision(b *testing.B) {
	static := ringStatic(40)
	cfg := recoveryConfig(b, static)
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 2
	cfg.MirrorBases = 1
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	for _, e := range motifWorkload(67, 40, 400) {
		if err := c.Publish(e); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReprovisionReplica(0, 1); err != nil {
			b.Fatal(err)
		}
		if err := c.AwaitReplicaLive(0, 1, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Stop()
}
