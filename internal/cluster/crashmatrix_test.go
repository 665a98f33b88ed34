package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"motifstream/internal/audit"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/partition"
	"motifstream/internal/queue"
)

// The crash matrix is the executable form of the whole-system durability
// claim: the same seeded workload runs through a no-fault oracle cluster
// and through a cluster subjected to kill/restore/restart faults injected
// at a specific pipeline stage — mid-checkpoint, mid-compaction,
// mid-truncation, mid-replay, and across full-process restarts
// (Shutdown, then New + Start of a brand-new Cluster value over the same
// durable directories) — and the delivered notification sets must be identical,
// with the touched replicas' D stores converging to the oracle's.

// durableConfig is recoveryConfig plus a durable firehose log with tiny
// segments, so restarts exercise WAL rotation and segment truncation.
func durableConfig(t testing.TB, static []graph.Edge) Config {
	t.Helper()
	cfg := recoveryConfig(t, static)
	cfg.LogDir = t.TempDir()
	cfg.LogSegmentBytes = 16 << 10
	return cfg
}

// crashHarness drives one fault-injected run: it owns the stream cursor
// and the current Cluster value, which a restart replaces wholesale. The
// fault operations come per transport. In process (cfg.Listen empty) c runs
// every replica and the faults are its lifecycle API. Over TCP c is a hub
// and replica index idx of every partition runs in worker idx, a separate
// Cluster joined over loopback: killing index idx aborts that worker,
// restoring it starts a fresh worker over the same OwnedReplicas, and a
// restart takes the hub and every worker down and reopens all of them.
type crashHarness struct {
	t      *testing.T
	cfg    Config
	c      *Cluster
	stream []graph.Edge
	pos    int
	// workers[idx] is the TCP leg's worker for replica index idx (nil while
	// crashed) and joins[idx] waits for its main loop to exit.
	workers []*Cluster
	joins   []func()
}

func newCrashHarness(t *testing.T, cfg Config, stream []graph.Edge) *crashHarness {
	t.Helper()
	h := &crashHarness{t: t, cfg: cfg, stream: stream}
	if h.tcp() {
		h.workers = make([]*Cluster, cfg.Replicas)
		h.joins = make([]func(), cfg.Replicas)
	}
	h.open()
	return h
}

func (h *crashHarness) tcp() bool { return h.cfg.Listen != "" }

// open constructs and starts the deployment over cfg's directories: the
// cluster (or hub), then over TCP one worker per replica index, returning
// once every worker has attached its slots. A hub knows a worker only from
// its attach: one shut down before it owes the worker no end of stream,
// and the worker would spend its outage budget redialing a closed listener.
func (h *crashHarness) open() {
	h.t.Helper()
	c, err := New(h.cfg)
	if err != nil {
		h.t.Fatalf("opening the deployment: %v", err)
	}
	c.Start()
	h.c = c
	for idx := range h.workers {
		h.startWorker(idx)
	}
	deadline := time.Now().Add(30 * time.Second)
	for idx := range h.workers {
		for pid := 0; pid < h.cfg.Partitions; pid++ {
			for state, _ := c.ReplicaState(pid, idx); state == "dead"; state, _ = c.ReplicaState(pid, idx) {
				if time.Now().After(deadline) {
					h.t.Fatalf("worker %d never attached replica %d/%d", idx, pid, idx)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// startWorker starts the worker owning replica idx of every partition. It
// shares the hub's registry, so Stats on the hub counts the workers'
// checkpoints, restores and audit verdicts as an in-process cluster's would.
func (h *crashHarness) startWorker(idx int) {
	h.t.Helper()
	var owned [][2]int
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		owned = append(owned, [2]int{pid, idx})
	}
	wcfg := workerConfig(h.t, h.cfg, h.c.ListenAddr(), owned)
	wcfg.Metrics = h.cfg.Metrics
	h.workers[idx], h.joins[idx] = startWorker(h.t, wcfg)
}

// publishTo publishes stream events up to the given fraction of the run.
func (h *crashHarness) publishTo(frac float64) {
	h.t.Helper()
	end := int(frac * float64(len(h.stream)))
	for ; h.pos < end; h.pos++ {
		if err := h.c.Publish(h.stream[h.pos]); err != nil {
			h.t.Fatal(err)
		}
	}
}

// killAll kills replica idx of every partition.
func (h *crashHarness) killAll(idx int) {
	h.t.Helper()
	if h.tcp() {
		h.workers[idx].Abort()
		h.joins[idx]()
		h.workers[idx] = nil
		return
	}
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		if err := h.c.KillReplica(pid, idx); err != nil {
			h.t.Fatal(err)
		}
	}
}

// restoreAll restores replica idx of every partition.
func (h *crashHarness) restoreAll(idx int) {
	h.t.Helper()
	if h.tcp() {
		h.startWorker(idx)
		return
	}
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		if err := h.c.RestoreReplica(pid, idx); err != nil {
			h.t.Fatal(err)
		}
	}
}

// awaitAll waits for replica idx of every partition to reach live.
func (h *crashHarness) awaitAll(idx int) {
	h.t.Helper()
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		if err := h.c.AwaitReplicaLive(pid, idx, 30*time.Second); err != nil {
			h.t.Fatal(err)
		}
	}
}

// reprovisionAll replaces the node of replica idx of every partition.
func (h *crashHarness) reprovisionAll(idx int) {
	h.t.Helper()
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		if err := h.c.ReprovisionReplica(pid, idx); err != nil {
			h.t.Fatal(err)
		}
	}
}

// addAll scales every partition out by one replica; all partitions must
// land on the same new index, which is returned.
func (h *crashHarness) addAll() int {
	h.t.Helper()
	idx := -1
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		got, err := h.c.AddReplica(pid)
		if err != nil {
			h.t.Fatal(err)
		}
		if idx == -1 {
			idx = got
		} else if got != idx {
			h.t.Fatalf("AddReplica returned index %d for partition %d, %d for earlier ones", got, pid, idx)
		}
	}
	return idx
}

// decommissionAll scales replica idx of every partition in.
func (h *crashHarness) decommissionAll(idx int) {
	h.t.Helper()
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		if err := h.c.DecommissionReplica(pid, idx); err != nil {
			h.t.Fatal(err)
		}
	}
}

// waitForBases waits until replica idx of every partition has a compacted
// base at the head of its durable chain (floor > 0) — the precondition
// for log truncation to advance and for the base pool to be non-empty.
func (h *crashHarness) waitForBases(idx int) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		slot, err := h.c.slot(pid, idx)
		if err != nil {
			h.t.Fatal(err)
		}
		for {
			man, err := loadManifest(manifestPath(slot.dir), h.c.runID)
			if err == nil && len(man.segs) > 0 && man.segs[0].kind == segKindBase {
				break
			}
			if time.Now().After(deadline) {
				h.t.Fatalf("replica %d/%d never compacted a base", pid, idx)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// waitForTruncation waits until the firehose log's compaction horizon has
// advanced past zero. The async writers drive truncation, so this only
// converges once every replica's floor is positive (waitForBases).
func (h *crashHarness) waitForTruncation() {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for h.c.Stats().LogTruncatedBelow == 0 {
		if time.Now().After(deadline) {
			var floors []uint64
			for _, group := range h.c.hub.slots {
				for _, s := range group {
					floors = append(floors, s.floor.Load())
				}
			}
			h.t.Fatalf("firehose log never truncated (floors %v, published %d)",
				floors, h.c.hub.firehose.Published())
		}
		time.Sleep(time.Millisecond)
	}
}

// corruptBases flips a byte in every base segment of replica idx's chain
// and in every mirror file stored in its directory — "all local bases
// corrupt", the state of a machine whose disk went bad.
func (h *crashHarness) corruptBases(idx int) {
	h.t.Helper()
	corrupted := 0
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		slot, err := h.c.slot(pid, idx)
		if err != nil {
			h.t.Fatal(err)
		}
		man, err := loadManifest(manifestPath(slot.dir), h.c.runID)
		if err == nil {
			for _, seg := range man.segs {
				if seg.kind != segKindBase {
					continue
				}
				flipByte(h.t, segmentPath(slot.dir, seg))
				corrupted++
			}
		}
		mdir := filepath.Join(slot.dir, mirrorSubdir)
		if entries, err := os.ReadDir(mdir); err == nil {
			for _, e := range entries {
				// A surviving peer may be pushing or retiring a mirror here
				// right now: a file already gone, or created and not yet
				// written, is no base on this disk.
				path := filepath.Join(mdir, e.Name())
				data, err := os.ReadFile(path)
				if err != nil || len(data) == 0 {
					continue
				}
				data[len(data)/2] ^= 0x40
				if err := os.WriteFile(path, data, 0o644); err != nil {
					h.t.Fatal(err)
				}
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		h.t.Fatal("vacuous: no base files to corrupt")
	}
}

func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// restart is the cross-process boundary: gracefully shut the current
// cluster down, then reopen a brand-new Cluster value over the same
// durable log and checkpoint directories.
func (h *crashHarness) restart() {
	h.t.Helper()
	if h.cfg.LogDir == "" {
		h.t.Fatal("restart needs a durable-log config")
	}
	h.shutdown()
	h.open()
}

// shutdown stops the deployment gracefully: the cluster (or hub), then over
// TCP every worker still running, whose main loops end with the hub's EOS.
func (h *crashHarness) shutdown() {
	h.c.Shutdown()
	for idx, w := range h.workers {
		if w != nil {
			h.joins[idx]()
		}
	}
}

// finish publishes the remainder of the stream, restores any replica the
// scenario left dead, and drains the cluster. Membership may have changed
// mid-scenario, so the scans cover the live topology, and decommissioned
// tombstones are exempt from the all-live drain invariant.
func (h *crashHarness) finish() {
	h.t.Helper()
	h.publishTo(1.0)
	if h.tcp() {
		h.finishWorkers()
	} else {
		for pid := 0; pid < h.cfg.Partitions; pid++ {
			for r := 0; r < h.c.Replicas(pid); r++ {
				if state, _ := h.c.ReplicaState(pid, r); state == "dead" {
					if err := h.c.RestoreReplica(pid, r); err != nil {
						h.t.Fatal(err)
					}
				}
			}
		}
		h.c.Shutdown()
		for pid := 0; pid < h.cfg.Partitions; pid++ {
			for r := 0; r < h.c.Replicas(pid); r++ {
				if state, _ := h.c.ReplicaState(pid, r); state != "live" && state != "removed" {
					h.t.Fatalf("replica %d/%d state %q after drain, want live", pid, r, state)
				}
			}
		}
	}
	h.assertFingerprints()
}

// finishWorkers is finish's restore-and-drain over TCP. A clean end of
// stream detaches every slot, so the all-live invariant is checked going
// into the drain rather than after it, and the workers first apply
// everything published while the hub still listens — as an in-process
// drain has the consumers do before the hub tier closes.
func (h *crashHarness) finishWorkers() {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for idx, w := range h.workers {
		if w == nil {
			h.startWorker(idx)
		}
		h.awaitAll(idx)
		for _, rep := range h.workers[idx].host.reps {
			for rep.applied.Load() < uint64(len(h.stream)) {
				if time.Now().After(deadline) {
					h.t.Fatalf("replica %d/%d applied %d of %d offsets", rep.pid, rep.idx, rep.applied.Load(), len(h.stream))
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	h.shutdown()
}

// assertFingerprints cross-checks every recorded state fingerprint across
// each partition's replicas (and asserts the pipeline's own checks found
// nothing): at every audited offset all replicas must have held
// bit-identical state. Called after the drain so the final cuts — which
// land at the common drained head — are recorded for every replica.
func (h *crashHarness) assertFingerprints() {
	h.t.Helper()
	if !h.c.audit {
		return
	}
	total := 0
	distinct := make(map[uint32]struct{})
	for pid := 0; pid < h.cfg.Partitions; pid++ {
		rep, err := h.c.VerifyFingerprints(pid)
		if err != nil {
			h.t.Fatalf("VerifyFingerprints(%d): %v", pid, err)
		}
		if len(rep.Mismatches) > 0 {
			h.t.Fatalf("partition %d: state fingerprint mismatches: %+v", pid, rep.Mismatches)
		}
		total += rep.Records
		for _, path := range auditSources(h.c.hub.placed(pid)) {
			recs, _ := audit.Read(path, h.c.runID)
			for _, rec := range recs {
				distinct[rec.Sum] = struct{}{}
			}
		}
	}
	if total == 0 {
		h.t.Fatal("vacuous: audit enabled but no fingerprints recorded")
	}
	// Equality across replicas only means something when the fingerprint
	// varies with state: a matrix run cuts at many offsets over a moving
	// stream, so its audit logs must hold more than one distinct value.
	if len(distinct) < 2 {
		h.t.Fatalf("vacuous: %d audit records carry %d distinct fingerprint value(s)", total, len(distinct))
	}
	if n := counter(h.t, h.c, "cluster.audit_mismatches"); n != 0 {
		h.t.Fatalf("pipeline detected %d fingerprint mismatches", n)
	}
}

// assertSameNotes fails unless the fault run delivered exactly the oracle
// set, with matching multiplicities.
func assertSameNotes(t *testing.T, want, got map[noteKey]int) {
	t.Helper()
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
}

// partitionOf returns the fault run's replica r of partition pid, wherever
// the transport put it.
func (h *crashHarness) partitionOf(pid, r int) (*partition.Partition, error) {
	if h.tcp() {
		return h.workers[r].host.replica(pid, r).p, nil
	}
	return h.c.Replica(pid, r)
}

// assertConverged compares every (non-decommissioned) replica's D store
// against the oracle's. Oracle replicas are deterministic clones, so
// replica 0 stands for the whole group — which also covers fault-side
// replicas added by scale-out, which have no oracle counterpart by index.
func assertConverged(t *testing.T, fault, oracle *Cluster, cfg Config) {
	t.Helper()
	assertConvergedFrom(t, fault, fault.Replica, oracle, cfg)
}

// assertConvergedFrom is assertConverged with the fault side's partitions
// fetched through replica: fault itself only supplies the topology.
func assertConvergedFrom(t *testing.T, fault *Cluster, replica func(pid, r int) (*partition.Partition, error), oracle *Cluster, cfg Config) {
	t.Helper()
	for pid := 0; pid < cfg.Partitions; pid++ {
		want, err := oracle.Replica(pid, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := want.Engine().Dynamic().Stats()
		for r := 0; r < fault.Replicas(pid); r++ {
			if state, _ := fault.ReplicaState(pid, r); state == "removed" {
				continue
			}
			got, err := replica(pid, r)
			if err != nil {
				t.Fatalf("replica %d/%d: %v", pid, r, err)
			}
			g := got.Engine().Dynamic().Stats()
			if g != w {
				t.Fatalf("partition %d replica %d D stats %+v != oracle %+v", pid, r, g, w)
			}
		}
	}
}

func TestCrashMatrix(t *testing.T) {
	const users = 50
	static := ringStatic(users)

	cases := []struct {
		name string
		// durable selects a disk-WAL firehose (required by restarts).
		durable bool
		// tune adjusts checkpoint cadence to pin the named pipeline stage.
		tune func(*Config)
		// fault drives the scenario between 0%% and 100%% of the stream;
		// finish() publishes the rest and drains.
		fault func(h *crashHarness)
		// verify runs extra non-vacuousness assertions on the drained
		// fault cluster.
		verify func(t *testing.T, h *crashHarness)
		// inProcessOnly, when set, says why the row has no TCP leg. Rows
		// built from killAll / restoreAll / restart (plus publishTo and the
		// wait and corrupt helpers) run once per transport; the elastic
		// calls are ErrNotLocal on a networked hub — there, replacing or
		// adding a replica is starting a process, not an API call.
		inProcessOnly string
	}{
		{
			// Dense cuts: the async writers are persisting segments at the
			// moment the kill lands, so the restore composes a mid-flight
			// chain.
			name: "mid-checkpoint",
			tune: func(cfg *Config) { cfg.CheckpointInterval = time.Second },
			fault: func(h *crashHarness) {
				h.publishTo(0.4)
				h.killAll(1)
				h.publishTo(0.7)
				h.restoreAll(1)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if counter(t, h.c, "cluster.checkpoints") == 0 {
					t.Fatal("vacuous: no checkpoints written")
				}
			},
		},
		{
			// Aggressive compaction: chains fold into fresh bases under
			// the kill and under the restore's chain composition.
			name: "mid-compaction",
			tune: func(cfg *Config) {
				cfg.CheckpointInterval = time.Second
				cfg.CompactEvery = 2
			},
			fault: func(h *crashHarness) {
				h.publishTo(0.35)
				h.killAll(1)
				h.publishTo(0.65)
				h.restoreAll(1)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if counter(t, h.c, "cluster.compactions") == 0 {
					t.Fatal("vacuous: no compactions ran")
				}
			},
		},
		{
			// Compaction on every replica advances the cluster floor, so
			// the firehose log is actively truncated while replicas die
			// and rejoin — the restore's replay must stay above the
			// moving horizon.
			name: "mid-truncation",
			tune: func(cfg *Config) {
				cfg.CheckpointInterval = time.Second
				cfg.CompactEvery = 2
				cfg.LogSegmentBytes = 2 << 10 // the log truncates whole segments
			},
			fault: func(h *crashHarness) {
				h.publishTo(0.5)
				h.killAll(0)
				h.publishTo(0.75)
				h.restoreAll(0)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if st := h.c.Stats(); st.LogTruncatedBelow == 0 {
					t.Fatal("vacuous: firehose log never truncated")
				}
			},
		},
		{
			// The second kill lands while the replica is replaying its
			// chain — the catch-up state machine is torn down mid-replay
			// and rebuilt.
			name: "mid-replay",
			tune: func(cfg *Config) { cfg.CheckpointInterval = 2 * time.Second },
			fault: func(h *crashHarness) {
				h.publishTo(0.3)
				h.killAll(1)
				h.publishTo(0.5)
				h.restoreAll(1) // starts replaying ~20% of the stream
				h.killAll(1)    // killed mid-replay
				h.publishTo(0.7)
				h.restoreAll(1)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if n := counter(t, h.c, "cluster.restores"); n < 4 {
					t.Fatalf("expected two restore rounds, got %d restores", n)
				}
			},
		},
		{
			// The acceptance case: feed half the stream, Shutdown, open
			// a brand-new Cluster value over the same directories, feed
			// the rest.
			name:    "cross-process-restart",
			durable: true,
			tune:    func(cfg *Config) { cfg.CheckpointInterval = 2 * time.Second },
			fault: func(h *crashHarness) {
				h.publishTo(0.5)
				h.restart()
			},
			verify: func(t *testing.T, h *crashHarness) {
				if counter(t, h.c, "cluster.restores") == 0 {
					t.Fatal("vacuous: reopen restored nothing")
				}
			},
		},
		{
			// Two restarts back to back, with compaction and log
			// truncation active across them: chains and the WAL's segment
			// horizon must stay consistent over repeated process
			// boundaries.
			name:    "double-restart-under-truncation",
			durable: true,
			tune: func(cfg *Config) {
				cfg.CheckpointInterval = time.Second
				cfg.CompactEvery = 2
			},
			fault: func(h *crashHarness) {
				h.publishTo(0.33)
				h.restart()
				h.publishTo(0.66)
				h.restart()
			},
			verify: func(t *testing.T, h *crashHarness) {
				if st := h.c.Stats(); st.LogTruncatedBelow == 0 {
					t.Fatal("vacuous: firehose log never truncated")
				}
			},
		},
		{
			// Restart while a replica group member is dead: Shutdown cuts
			// finals only for the alive replicas, and the restart resurrects
			// the dead one from its stale chain with a deeper replay.
			name:    "restart-with-dead-replica",
			durable: true,
			tune:    func(cfg *Config) { cfg.CheckpointInterval = time.Second },
			fault: func(h *crashHarness) {
				h.publishTo(0.4)
				h.killAll(1)
				h.publishTo(0.6)
				h.restart() // replica 1 of each partition is dead at shutdown
			},
		},
		{
			// Restart immediately after a restore, while the replica may
			// still be replaying: Shutdown drains the replay first, the
			// final cut covers it, and the reopened cluster continues.
			name:    "restart-mid-replay",
			durable: true,
			tune:    func(cfg *Config) { cfg.CheckpointInterval = 2 * time.Second },
			fault: func(h *crashHarness) {
				h.publishTo(0.3)
				h.killAll(1)
				h.publishTo(0.55)
				h.restoreAll(1)
				h.restart() // no await: replay may be in flight
			},
		},
		{
			// Node replacement mid-stream: replica 1 of every partition
			// dies and is replaced entirely — new generation directory,
			// fresh S, state rebuilt from the partition's base pool plus
			// log replay — while the survivors keep compacting and
			// truncating underneath.
			name:          "reprovision-mid-stream",
			durable:       true,
			inProcessOnly: "elastic lifecycle calls return ErrNotLocal on a networked hub",
			tune: func(cfg *Config) {
				cfg.CheckpointInterval = time.Second
				cfg.CompactEvery = 2
				cfg.MirrorBases = 1
			},
			fault: func(h *crashHarness) {
				h.publishTo(0.4)
				h.killAll(1)
				h.publishTo(0.7)
				h.reprovisionAll(1)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if counter(t, h.c, "cluster.reprovisions") == 0 {
					t.Fatal("vacuous: nothing reprovisioned")
				}
				if counter(t, h.c, "cluster.base_mirrors") == 0 {
					t.Fatal("vacuous: no bases mirrored")
				}
				// The replacement lives in a new generation directory.
				slot, err := h.c.slot(0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if slot.gen == 0 {
					t.Fatal("reprovisioned replica kept generation 0")
				}
			},
		},
		{
			// The acceptance case: every base file of replica 1 — chain
			// bases and the mirrors stored on its disk — is corrupted
			// after its node dies, and the log has been truncated above
			// its floor, so neither its chain nor a scratch replay can
			// restore it. ReprovisionReplica must still bring it back via
			// the peers' base pool, oracle-equivalent.
			name:          "reprovision-all-local-bases-corrupt",
			durable:       true,
			inProcessOnly: "elastic lifecycle calls return ErrNotLocal on a networked hub",
			tune: func(cfg *Config) {
				cfg.CheckpointInterval = time.Second
				cfg.CompactEvery = 2
				cfg.MirrorBases = 1
				// Tiny WAL segments: truncation deletes whole segments, and
				// the dead replica's frozen floor must have whole segments
				// below it for the log to actually shrink mid-scenario.
				cfg.LogSegmentBytes = 2 << 10
			},
			fault: func(h *crashHarness) {
				h.publishTo(0.4)
				// Publishing is asynchronous (the firehose buffers), so let
				// every replica's compactor catch up far enough for whole
				// WAL segments to fall below the cluster floor before the
				// kill freezes replica 1's floors: after it, scratch
				// recovery (offset 0) is permanently below the log start.
				h.waitForTruncation()
				h.killAll(1)
				h.publishTo(0.7) // survivors keep compacting past the corpses
				h.corruptBases(1)
				h.reprovisionAll(1)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if h.c.Stats().LogTruncatedBelow == 0 {
					t.Fatal("vacuous: log never truncated; plain replay would have sufficed")
				}
				if re, pool := counter(t, h.c, "cluster.reprovisions"), counter(t, h.c, "cluster.base_pool_restores"); re == 0 || pool == 0 {
					t.Fatalf("vacuous: reprovisions=%d pool restores=%d", re, pool)
				}
			},
		},
		{
			// Live scale-out, then the original replicas die: the
			// scaled-out replica carries the group (the kill guard counts
			// it), and the dead originals restore as usual. Exactly-once
			// must hold across the membership change.
			name:          "scale-out-then-kill-original",
			durable:       true,
			inProcessOnly: "elastic lifecycle calls return ErrNotLocal on a networked hub",
			tune: func(cfg *Config) {
				cfg.CheckpointInterval = time.Second
				cfg.MirrorBases = 1
			},
			fault: func(h *crashHarness) {
				h.publishTo(0.3)
				idx := h.addAll()
				h.awaitAll(idx)
				h.publishTo(0.5)
				h.killAll(0)
				h.killAll(1) // only the scaled-out replica remains
				h.publishTo(0.8)
				h.restoreAll(0)
				h.restoreAll(1)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if counter(t, h.c, "cluster.scale_outs") == 0 {
					t.Fatal("vacuous: no scale-out happened")
				}
				if n := h.c.Replicas(0); n != 3 {
					t.Fatalf("partition 0 has %d replicas, want 3", n)
				}
			},
		},
		{
			// Live scale-in under load: an added replica takes over and an
			// original is decommissioned for good — no dupes, no losses,
			// and the tombstone never comes back (finish() asserts the
			// drain invariant around it).
			name:          "scale-out-scale-in",
			durable:       true,
			inProcessOnly: "elastic lifecycle calls return ErrNotLocal on a networked hub",
			tune: func(cfg *Config) {
				cfg.CheckpointInterval = time.Second
				cfg.MirrorBases = 1
			},
			fault: func(h *crashHarness) {
				h.publishTo(0.3)
				idx := h.addAll()
				h.awaitAll(idx)
				h.publishTo(0.6)
				h.decommissionAll(1)
			},
			verify: func(t *testing.T, h *crashHarness) {
				if counter(t, h.c, "cluster.scale_ins") == 0 {
					t.Fatal("vacuous: no scale-in happened")
				}
				if state, _ := h.c.ReplicaState(0, 1); state != "removed" {
					t.Fatalf("decommissioned replica state = %q", state)
				}
			},
		},
	}

	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := motifWorkload(900+int64(i), users, 500)

			newCfg := func(durable bool) Config {
				var cfg Config
				if durable {
					cfg = durableConfig(t, static)
				} else {
					cfg = recoveryConfig(t, static)
				}
				if tc.tune != nil {
					tc.tune(&cfg)
				}
				return cfg
			}

			// Oracle: the identical configuration, fresh directories, no
			// faults.
			oracleCfg := newCfg(tc.durable)
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

			// Fault run, once per transport — at the deployed 16x2 batch
			// bound, so every matrix scenario doubles as a
			// batching-independence check (the oracle stays at a batch
			// bound of one).
			for _, leg := range []string{"inproc", "tcp"} {
				t.Run(leg, func(t *testing.T) {
					faultCfg := newCfg(tc.durable || leg == "tcp")
					if leg == "tcp" {
						if tc.inProcessOnly != "" {
							t.Skip(tc.inProcessOnly)
						}
						// A hub needs the durable log either way.
						faultCfg.Listen = "127.0.0.1:0"
						faultCfg.NetDrainTimeout = 20 * time.Second
						faultCfg.Metrics = metrics.NewRegistry()
					}
					faultCfg.ApplyBatch = 16
					faultCfg.ApplyWorkers = 2
					faultNotes := collectNotes(&faultCfg)
					h := newCrashHarness(t, faultCfg, stream)
					tc.fault(h)
					h.finish()

					assertSameNotes(t, oracleNotes(), faultNotes())
					assertConvergedFrom(t, h.c, h.partitionOf, oracle, faultCfg)
					if tc.verify != nil {
						tc.verify(t, h)
					}
				})
			}
		})
	}
}

// TestReopenBaseCorruptionForcesDeepReplay is the acceptance case's
// corruption arm: replicas idx 0 die before their first checkpoint cut
// (pinning the cluster floor at zero, so the durable log is never
// truncated), the surviving replicas compact real base segments, and
// after Shutdown every base on disk is bit-flipped. The restart must detect
// the damage via the segment checksums, fall each chain back to scratch,
// and replay the entire durable log — delivering exactly the oracle set.
func TestReopenBaseCorruptionForcesDeepReplay(t *testing.T) {
	const users = 50
	static := ringStatic(users)
	stream := motifWorkload(77, users, 500)

	newCfg := func() Config {
		cfg := durableConfig(t, static)
		cfg.CheckpointInterval = time.Second
		cfg.CompactEvery = 2
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
		if err := oracle.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	oracle.Stop()

	faultCfg := newCfg()
	faultNotes := collectNotes(&faultCfg)
	h := newCrashHarness(t, faultCfg, stream)
	// Kill replica 0 of each partition before any checkpoint interval can
	// elapse: their floors stay zero, so the log retains offset 0 forever.
	h.publishTo(0.01)
	h.killAll(0)
	h.publishTo(0.6)
	if st := h.c.Stats(); st.LogTruncatedBelow != 0 {
		t.Fatalf("log truncated to %d despite a zero-floor replica", st.LogTruncatedBelow)
	}
	h.c.Shutdown()

	// Flip one byte in every base segment on disk.
	corrupted := 0
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		for r := 0; r < faultCfg.Replicas; r++ {
			dir := replicaCkptDir(faultCfg.CheckpointDir, pid, r)
			man, err := loadManifest(manifestPath(dir), h.c.runID)
			if err != nil || len(man.segs) == 0 {
				continue
			}
			if man.segs[0].kind != segKindBase {
				continue
			}
			path := segmentPath(dir, man.segs[0])
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("vacuous: no base segments to corrupt")
	}

	c, err := New(faultCfg)
	if err != nil {
		t.Fatalf("restart over corrupt bases: %v", err)
	}
	c.Start()
	h.c = c
	if counter(t, c, "cluster.restores") == 0 {
		t.Fatal("vacuous: reopen restored nothing")
	}
	h.finish()

	assertSameNotes(t, oracleNotes(), faultNotes())
	assertConverged(t, h.c, oracle, faultCfg)
}

// TestReopenCorruptBaseAboveTruncatedLogFails pins the documented
// unrecoverable corner (docs/DURABILITY.md): once the durable log has
// been compacted past offset zero, a corrupt base leaves no restore point
// the log can back — the restart must refuse with ErrTruncated instead of
// composing garbage.
func TestReopenCorruptBaseAboveTruncatedLogFails(t *testing.T) {
	const users = 40
	static := ringStatic(users)
	stream := motifWorkload(88, users, 400)

	cfg := durableConfig(t, static)
	cfg.Replicas = 1 // every replica compacts, so truncation advances
	cfg.CheckpointInterval = time.Second
	cfg.CompactEvery = 2
	// Segments small enough that 400 records span several: the log only
	// truncates whole segments below the newest.
	cfg.LogSegmentBytes = 8 << 10
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
	c.Shutdown()
	if st := c.Stats(); st.LogTruncatedBelow == 0 {
		t.Fatal("vacuous: log never truncated; the corruption would be recoverable")
	}

	// Corrupt partition 0's base segment.
	dir := replicaCkptDir(cfg.CheckpointDir, 0, 0)
	man, err := loadManifest(manifestPath(dir), c.runID)
	if err != nil || len(man.segs) == 0 || man.segs[0].kind != segKindBase {
		t.Fatalf("no base to corrupt: %v (%d segs)", err, len(man.segs))
	}
	path := segmentPath(dir, man.segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := New(cfg); !errors.Is(err, queue.ErrTruncated) {
		t.Fatalf("restart over corrupt base above truncated log = %v, want ErrTruncated", err)
	}
}

// repushEdges returns one motif completion for (user 0, item) in
// ringStatic space: users 1 and 2 — both followed by user 0 — acting on
// the item within the detection window, at the given stream time.
func repushEdges(item graph.VertexID, ts int64) []graph.Edge {
	return []graph.Edge{
		{Src: 1, Dst: item, Type: graph.Follow, TS: ts},
		{Src: 2, Dst: item, Type: graph.Follow, TS: ts + 1},
	}
}

func publishAll(t *testing.T, c *Cluster, edges []graph.Edge) {
	t.Helper()
	for _, e := range edges {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartRepushesSuppressed is the crash matrix's
// restart-repushes-suppressed scenario: a (user, item) pair pushed before
// a clean Shutdown must be DroppedDuplicate — not re-pushed — when the
// stream repeats the pair after the restart. This is the restart
// duplicate-push window the durable delivery.state closes; before it the
// reopened pipeline's empty dedup LRU re-delivered the pair.
func TestRestartRepushesSuppressed(t *testing.T) {
	cfg := durableConfig(t, ringStatic(8))
	notes := collectNotes(&cfg)
	const item = graph.VertexID(500_000)
	const ts = int64(10_000_000)
	key := noteKey{0, item}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	publishAll(t, c, repushEdges(item, ts))
	c.Shutdown()
	if got := notes()[key]; got != 1 {
		t.Fatalf("vacuous: (0,%d) delivered %d times before restart, want 1", item, got)
	}
	if counter(t, c, "cluster.delivery_state_cuts") == 0 {
		t.Fatal("Shutdown cut no delivery state")
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	publishAll(t, c2, repushEdges(item, ts+60_000))
	c2.Shutdown()

	if got := notes()[key]; got != 1 {
		t.Fatalf("(0,%d) delivered %d times across the restart, want 1 (re-push suppressed)", item, got)
	}
	if f := c2.Pipeline().Stats(); f.DroppedDuplicate == 0 {
		t.Fatalf("reopened funnel saw no duplicate drop: %+v", f)
	}
	if n := counter(t, c2, "cluster.delivery_state_restores"); n != 1 {
		t.Fatalf("cluster.delivery_state_restores = %d, want 1", n)
	}
}

// TestRestartFatigueBudgetSurvives is the fatigue arm of the scenario: a
// user's daily push budget spent before Shutdown must still be spent
// after the restart within the same stream day, not silently reset.
func TestRestartFatigueBudgetSurvives(t *testing.T) {
	cfg := durableConfig(t, ringStatic(8))
	cfg.Delivery.MaxPerUserPerDay = 1
	notes := collectNotes(&cfg)
	const itemA = graph.VertexID(500_000)
	const itemB = graph.VertexID(500_001)
	const ts = int64(10_000_000)

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	publishAll(t, c, repushEdges(itemA, ts))
	c.Shutdown()
	if got := notes()[noteKey{0, itemA}]; got != 1 {
		t.Fatalf("vacuous: first push delivered %d times, want 1", got)
	}

	// Same stream day, different item: the restored budget (1/1 spent)
	// must block it.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	publishAll(t, c2, repushEdges(itemB, ts+120_000))
	c2.Shutdown()

	if got := notes()[noteKey{0, itemB}]; got != 0 {
		t.Fatalf("second push of the day delivered %d times across restart, want 0 (budget restored)", got)
	}
	if f := c2.Pipeline().Stats(); f.DroppedFatigue == 0 {
		t.Fatalf("reopened funnel saw no fatigue drop: %+v", f)
	}
}

// TestRestartCorruptDeliveryStateDegrades pins the failure contract: a
// corrupt (or missing) delivery.state must degrade the restart to the
// pre-durable-state tolerance — the repeated pair is re-pushed once, the
// documented product-level-dedup corner — never fail the reopen.
func TestRestartCorruptDeliveryStateDegrades(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"corrupt", func(t *testing.T, path string) { flipByte(t, path) }},
		{"missing", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := durableConfig(t, ringStatic(8))
			notes := collectNotes(&cfg)
			const item = graph.VertexID(500_000)
			const ts = int64(10_000_000)
			key := noteKey{0, item}

			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			publishAll(t, c, repushEdges(item, ts))
			c.Shutdown()
			if got := notes()[key]; got != 1 {
				t.Fatalf("vacuous: delivered %d times before restart", got)
			}
			tc.damage(t, deliveryStatePath(cfg.CheckpointDir))

			c2, err := New(cfg)
			if err != nil {
				t.Fatalf("restart over %s delivery.state: %v", tc.name, err)
			}
			c2.Start()
			publishAll(t, c2, repushEdges(item, ts+60_000))
			c2.Shutdown()

			if n := counter(t, c2, "cluster.delivery_state_restores"); n != 0 {
				t.Fatalf("cluster.delivery_state_restores = %d over %s state", n, tc.name)
			}
			// Degraded semantics: the pair is re-pushed exactly once more.
			if got := notes()[key]; got != 2 {
				t.Fatalf("(0,%d) delivered %d times, want 2 (degraded tolerance)", item, got)
			}
		})
	}
}

// TestReopenSeedsDeliveryFilter pins the mechanism behind restart
// exactly-once: the reopened delivery consumer starts from the persisted
// per-group high-water offsets, not zero.
func TestReopenSeedsDeliveryFilter(t *testing.T) {
	static := ringStatic(40)
	stream := motifWorkload(99, 40, 300)
	cfg := durableConfig(t, static)
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
	c.Shutdown()
	if st := c.Stats(); st.Delivered == 0 {
		t.Fatal("vacuous: nothing delivered before restart")
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	defer c2.Stop()
	seeded := false
	for _, off := range c2.hub.initialDelivery {
		if off > 0 {
			seeded = true
		}
	}
	if !seeded {
		t.Fatal("reopened cluster has all-zero delivery offsets")
	}
}
