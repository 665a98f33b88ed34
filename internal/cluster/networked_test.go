package cluster

import (
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/delivery"
	"motifstream/internal/graph"
	"motifstream/internal/transport"
)

// hubConfig builds a networked hub over fresh (or given) directories with
// the recovery-test delivery settings.
func hubConfig(t testing.TB, partitions, replicas int, logDir, ckptDir string) Config {
	t.Helper()
	cfg := recoveryConfig(t, ringStatic(8))
	cfg.Partitions = partitions
	cfg.Replicas = replicas
	cfg.Listen = "127.0.0.1:0"
	cfg.LogDir = logDir
	cfg.CheckpointDir = ckptDir
	cfg.NetDrainTimeout = 20 * time.Second
	return cfg
}

// workerConfig builds a networked worker joined to addr, owning the given
// slots, over the hub's shared checkpoint directory.
func workerConfig(t testing.TB, hub Config, addr string, owned [][2]int) Config {
	t.Helper()
	cfg := hub
	cfg.Listen = ""
	cfg.LogDir = ""
	cfg.Join = addr
	cfg.OwnedReplicas = owned
	cfg.OnNotify = nil
	cfg.Metrics = nil
	return cfg
}

// startWorker constructs and starts a worker, returning it plus a join
// function that blocks until the worker's main loop exits (hub EOS).
func startWorker(t testing.TB, cfg Config) (*Cluster, func()) {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Wait(); err != nil {
			t.Errorf("worker Wait: %v", err)
		}
	}()
	return w, wg.Wait
}

// awaitAllLive waits for every non-removed hub slot to report live.
func awaitAllLive(t testing.TB, hub *Cluster) {
	t.Helper()
	for pid := range hub.hub.slots {
		for r := range hub.hub.slots[pid] {
			if hub.hub.slots[pid][r].state.Load() == replicaRemoved {
				continue
			}
			if err := hub.AwaitReplicaLive(pid, r, 15*time.Second); err != nil {
				t.Fatalf("replica %d/%d never went live: %v", pid, r, err)
			}
		}
	}
}

// awaitAttached waits for the hub to hold at least want worker
// connections.
func awaitAttached(t testing.TB, hub *Cluster, want int) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for hub.server().Connections() < want {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("hub holds %d worker connections, want %d", hub.server().Connections(), want)
		}
	}
}

// oracleNotes runs the same workload on a single-process durable cluster
// and returns its delivered set — the equivalence baseline.
func oracleNotes(t testing.TB, partitions, replicas int, edges []graph.Edge) map[noteKey]int {
	t.Helper()
	cfg := recoveryConfig(t, ringStatic(8))
	cfg.Partitions = partitions
	cfg.Replicas = replicas
	notes := collectNotes(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, e := range edges {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	c.Stop()
	return notes()
}

func diffNotes(t testing.TB, want, got map[noteKey]int, label string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("oracle delivered nothing; workload is too weak to compare")
	}
	for k := range want {
		if got[k] == 0 {
			t.Errorf("%s: missing notification user=%d item=%d", label, k.user, k.item)
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("%s: unexpected notification user=%d item=%d", label, k.user, k.item)
		} else if n != 1 {
			t.Errorf("%s: notification user=%d item=%d delivered %d times", label, k.user, k.item, n)
		}
	}
}

func verifyAllFingerprints(t testing.TB, hub *Cluster) {
	t.Helper()
	for pid := range hub.hub.slots {
		rep, err := hub.VerifyFingerprints(pid)
		if err != nil {
			t.Fatalf("VerifyFingerprints(%d): %v", pid, err)
		}
		if len(rep.Mismatches) != 0 {
			t.Fatalf("partition %d fingerprint mismatches: %+v", pid, rep.Mismatches)
		}
	}
}

func TestNetworkedValidation(t *testing.T) {
	base := recoveryConfig(t, fig1Static())
	base.Partitions = 2

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"listen and join", func(c *Config) {
			c.Listen = "127.0.0.1:0"
			c.LogDir = t.TempDir()
			c.Join = "127.0.0.1:1"
			c.OwnedReplicas = [][2]int{{0, 0}}
		}},
		{"listen without checkpoint dir", func(c *Config) { c.Listen = "127.0.0.1:0"; c.CheckpointDir = "" }},
		{"listen with owned", func(c *Config) { c.Listen = "127.0.0.1:0"; c.LogDir = t.TempDir(); c.OwnedReplicas = [][2]int{{0, 0}} }},
		{"owned without join", func(c *Config) { c.OwnedReplicas = [][2]int{{0, 0}} }},
		{"join with logdir", func(c *Config) { c.Join = "127.0.0.1:1"; c.LogDir = t.TempDir(); c.OwnedReplicas = [][2]int{{0, 0}} }},
		{"join without owned", func(c *Config) { c.Join = "127.0.0.1:1" }},
		{"join without checkpoint dir", func(c *Config) { c.Join = "127.0.0.1:1"; c.OwnedReplicas = [][2]int{{0, 0}}; c.CheckpointDir = "" }},
		{"owned out of range", func(c *Config) { c.Join = "127.0.0.1:1"; c.OwnedReplicas = [][2]int{{9, 0}} }},
		{"owned duplicated", func(c *Config) { c.Join = "127.0.0.1:1"; c.OwnedReplicas = [][2]int{{0, 0}, {0, 0}} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestNetworkedLifecycleOpsAreGated(t *testing.T) {
	hcfg := hubConfig(t, 2, 1, t.TempDir(), t.TempDir())
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	hub.Start()

	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wk, joinWorker := startWorker(t, wcfg)
	awaitAllLive(t, hub)

	for name, op := range map[string]func(*Cluster) error{
		"KillReplica":         func(c *Cluster) error { return c.KillReplica(0, 0) },
		"RestoreReplica":      func(c *Cluster) error { return c.RestoreReplica(0, 0) },
		"ReprovisionReplica":  func(c *Cluster) error { return c.ReprovisionReplica(0, 0) },
		"DecommissionReplica": func(c *Cluster) error { return c.DecommissionReplica(0, 0) },
		"AddReplica":          func(c *Cluster) error { _, err := c.AddReplica(0); return err },
	} {
		if err := op(hub); !errors.Is(err, ErrNotLocal) {
			t.Errorf("hub %s = %v, want ErrNotLocal", name, err)
		}
		if err := op(wk); !errors.Is(err, ErrNotLocal) {
			t.Errorf("worker %s = %v, want ErrNotLocal", name, err)
		}
	}
	// Worker-side read and failover surfaces are hub business.
	if _, err := wk.RecommendationsFor(1); !errors.Is(err, ErrNotLocal) {
		t.Errorf("worker RecommendationsFor = %v, want ErrNotLocal", err)
	}
	if _, err := wk.TopItems(3); !errors.Is(err, ErrNotLocal) {
		t.Errorf("worker TopItems = %v, want ErrNotLocal", err)
	}
	if err := wk.FailReplica(0, 0); !errors.Is(err, ErrNotLocal) {
		t.Errorf("worker FailReplica = %v, want ErrNotLocal", err)
	}
	// A remote slot has no local partition handle.
	if _, err := hub.Replica(0, 0); err == nil {
		t.Error("hub Replica(0,0) returned a handle for a remote slot")
	}

	hub.Shutdown()
	joinWorker()
}

// TestNetworkedWorkerStaticPerPartition: a worker builds S once per
// partition it hosts, so one owning a replica of partitions 0 and 1 serves
// two Snapshots, each its own partition's — nothing shared across
// partitions.
func TestNetworkedWorkerStaticPerPartition(t *testing.T) {
	hcfg := hubConfig(t, 2, 1, t.TempDir(), t.TempDir())
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Stop()
	hub.Start()
	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wk, joinWorker := startWorker(t, wcfg)
	awaitAllLive(t, hub)

	s0 := wk.host.replica(0, 0).p.Engine().Static().Snapshot()
	s1 := wk.host.replica(1, 0).p.Engine().Static().Snapshot()
	if s0 == s1 {
		t.Fatal("the worker's replicas of partitions 0 and 1 serve one Snapshot")
	}
	assertStaticOf(t, wcfg, 0, s0)
	assertStaticOf(t, wcfg, 1, s1)

	hub.Shutdown()
	joinWorker()
}

// TestNetworkedEndToEnd is the success bar's happy path: hub + one worker
// process boundary over real sockets, oracle delivered-set equivalence,
// fan-out reads through broker members that ride the feed connections,
// clean shutdown with final checkpoint cuts, clean fingerprint audit.
func TestNetworkedEndToEnd(t *testing.T) {
	edges := motifWorkload(42, 8, 120)
	want := oracleNotes(t, 2, 1, edges)

	hcfg := hubConfig(t, 2, 1, t.TempDir(), t.TempDir())
	notes := collectNotes(&hcfg)
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	if hub.ListenAddr() == "" {
		t.Fatal("hub has no listen address")
	}

	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wk, joinWorker := startWorker(t, wcfg)
	awaitAllLive(t, hub)

	for _, e := range edges {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	// Once the stream is applied the hub writes no envelope frame, so every
	// frame it writes on a feed is a read request: N reads, at least N frames.
	for _, or := range wcfg.OwnedReplicas {
		deadline := time.Now().Add(10 * time.Second)
		for wk.host.replica(or[0], or[1]).applied.Load() < uint64(len(edges)) {
			if time.Now().After(deadline) {
				t.Fatalf("worker replica %d/%d never applied the stream", or[0], or[1])
			}
			time.Sleep(time.Millisecond)
		}
	}
	framesOut := hub.Metrics().Counter("transport.feed.frames_out")
	before, reads := framesOut.Value(), 0
	for a := graph.VertexID(0); a < 8; a++ {
		if _, err := hub.RecommendationsFor(a); err != nil {
			t.Fatal(err)
		}
		reads++
	}
	// The feed's writer goroutine counts a frame after flushing it, so the
	// worker's answer can return a read before its frame is counted: wait
	// for the count, not for the read.
	for deadline := time.Now().Add(10 * time.Second); framesOut.Value()-before < uint64(reads) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := framesOut.Value() - before; got < uint64(reads) {
		t.Errorf("%d reads raised the hub's feed frames_out by %d: they did not ride the feed connections", reads, got)
	}

	// Fan-out reads reach the worker over its feed connections.
	deadline := time.Now().Add(10 * time.Second)
	for {
		top, err := hub.TopItems(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TopItems never returned data over the read RPC")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var anyRecs bool
	for a := graph.VertexID(0); a < 8 && !anyRecs; a++ {
		recs, err := hub.RecommendationsFor(a)
		if err != nil {
			t.Fatal(err)
		}
		anyRecs = len(recs) > 0
	}

	hub.Shutdown()
	joinWorker()

	diffNotes(t, want, notes(), "networked")
	if !anyRecs {
		t.Error("no user returned recommendations over the read RPC")
	}
	verifyAllFingerprints(t, hub)
	if got := hub.Stats().Delivered; got == 0 {
		t.Error("hub delivered counter is zero")
	}
}

// TestNetworkedTwoWorkersRedundant runs a replicated topology split across
// two worker processes: every event is detected twice (once per worker),
// and the hub's per-group offset filter must still collapse delivery to
// exactly-once.
func TestNetworkedTwoWorkersRedundant(t *testing.T) {
	edges := motifWorkload(7, 8, 150)
	want := oracleNotes(t, 2, 2, edges)

	hcfg := hubConfig(t, 2, 2, t.TempDir(), t.TempDir())
	notes := collectNotes(&hcfg)
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()

	wcfgA := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wcfgB := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 1}, {1, 1}})
	_, joinA := startWorker(t, wcfgA)
	_, joinB := startWorker(t, wcfgB)
	awaitAllLive(t, hub)

	for _, e := range edges {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	hub.Shutdown()
	joinA()
	joinB()

	diffNotes(t, want, notes(), "two-workers")
	verifyAllFingerprints(t, hub)
}

// TestNetworkedConnectionDrops injects repeated network blips — every
// worker connection severed mid-stream — and requires the reconnect path
// (idempotent envelope redelivery, candidate resend, sticky live reports)
// to keep the delivered set byte-equal to the no-fault oracle.
func TestNetworkedConnectionDrops(t *testing.T) {
	edges := motifWorkload(11, 8, 200)
	want := oracleNotes(t, 2, 1, edges)

	hcfg := hubConfig(t, 2, 1, t.TempDir(), t.TempDir())
	notes := collectNotes(&hcfg)
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()

	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wk, joinWorker := startWorker(t, wcfg)
	awaitAllLive(t, hub)

	// The worker holds one feed per owned slot plus its candidate stream.
	// Each blip waits for all of them to be back: a drop injected while the
	// worker is still in its reconnect backoff would sever nothing.
	workerConns := len(wcfg.OwnedReplicas) + 1
	for i, e := range edges {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
		if i%60 == 59 {
			awaitAttached(t, hub, workerConns)
			if n := hub.DropConnections(); n != workerConns {
				t.Fatalf("drop %d severed %d connections, want %d", i, n, workerConns)
			}
		}
	}
	hub.Shutdown()
	joinWorker()

	diffNotes(t, want, notes(), "conn-drops")
	verifyAllFingerprints(t, hub)
	if rec := wk.Metrics().Counter("transport.reconnects").Value(); rec == 0 {
		t.Error("worker recorded no reconnects despite injected drops")
	}
}

// TestNetworkedWorkerCrashRestart is the crash-matrix leg over real
// sockets: one of two redundant workers dies mid-stream (Abort — the
// in-process equivalent of SIGKILL: sockets drop, no flush, no final
// cut), the surviving worker covers delivery, and a restarted worker
// process recovers from its durable chains, replays the hub log, and goes
// live — with the delivered set still exactly the no-fault oracle's.
func TestNetworkedWorkerCrashRestart(t *testing.T) {
	edges := motifWorkload(23, 8, 240)
	want := oracleNotes(t, 2, 2, edges)

	hcfg := hubConfig(t, 2, 2, t.TempDir(), t.TempDir())
	notes := collectNotes(&hcfg)
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()

	wcfgA := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wcfgB := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 1}, {1, 1}})
	_, joinA := startWorker(t, wcfgA)
	wkB, _ := startWorker(t, wcfgB)
	awaitAllLive(t, hub)

	third := len(edges) / 3
	for _, e := range edges[:third] {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	wkB.Abort() // crash: connections drop, unflushed state is lost

	for _, e := range edges[third : 2*third] {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	// The hub marks B's slots dead when the sockets drop (the feed
	// handlers notice the sever asynchronously).
	for pid := 0; pid < 2; pid++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := hub.ReplicaState(pid, 1)
			if err != nil {
				t.Fatal(err)
			}
			if st == "dead" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("crashed worker's slot %d/1 state = %q, want dead", pid, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Restart: a fresh worker process over the same shared directories.
	wkB2, joinB2 := startWorker(t, wcfgB)
	if err := hub.AwaitReplicaLive(0, 1, 20*time.Second); err != nil {
		t.Fatalf("restarted worker 0/1: %v", err)
	}
	if err := hub.AwaitReplicaLive(1, 1, 20*time.Second); err != nil {
		t.Fatalf("restarted worker 1/1: %v", err)
	}
	if counter(t, wkB2, "cluster.restores") == 0 {
		t.Error("restarted worker recorded no restores")
	}

	for _, e := range edges[2*third:] {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	hub.Shutdown()
	joinA()
	joinB2()

	diffNotes(t, want, notes(), "crash-restart")
	verifyAllFingerprints(t, hub)
}

// TestNetworkedFullRestart shuts the whole deployment down cleanly and
// brings it back over the same directories: the hub reopens its durable
// log and delivery offsets, workers recompose their chains, and a second
// workload stretch delivers exactly-once overall.
func TestNetworkedFullRestart(t *testing.T) {
	edges := motifWorkload(31, 8, 160)
	want := oracleNotes(t, 2, 1, edges)
	half := len(edges) / 2

	logDir, ckptDir := t.TempDir(), t.TempDir()
	total := map[noteKey]int{}
	var mu sync.Mutex

	runStretch := func(stretch []graph.Edge) {
		hcfg := hubConfig(t, 2, 1, logDir, ckptDir)
		hcfg.OnNotify = func(n delivery.Notification) {
			mu.Lock()
			total[noteKey{n.Candidate.User, n.Candidate.Item}]++
			mu.Unlock()
		}
		hub, err := New(hcfg)
		if err != nil {
			t.Fatal(err)
		}
		hub.Start()
		wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
		_, joinWorker := startWorker(t, wcfg)
		awaitAllLive(t, hub)
		for _, e := range stretch {
			if err := hub.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		hub.Shutdown()
		joinWorker()
		verifyAllFingerprints(t, hub)
	}

	runStretch(edges[:half])
	runStretch(edges[half:])

	mu.Lock()
	got := make(map[noteKey]int, len(total))
	for k, v := range total {
		got[k] = v
	}
	mu.Unlock()
	diffNotes(t, want, got, "full-restart")
}

// TestNetworkedStaleDetachIgnored pins that lifecycle events are scoped to
// the attachment they belong to. A worker whose connection went half-open
// reconnects: the new attachment owns the slot, and when the hub finally
// notices the old connection gone, that detach — like anything else the old
// attachment still reports — must not take the slot away from its successor.
func TestNetworkedStaleDetachIgnored(t *testing.T) {
	hcfg := hubConfig(t, 1, 1, t.TempDir(), t.TempDir())
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	defer hub.Stop()

	backend := hub.hub // what the transport server calls for a feed hello
	attA, _, err := backend.ReplicaAttached(0, 0, 0, 0, 0, fakeReads(0))
	if err != nil {
		t.Fatal(err)
	}
	attA.NotifyLive()
	attB, _, err := backend.ReplicaAttached(0, 0, 0, 0, 0, fakeReads(0))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := hub.ReplicaState(0, 0); st != "replaying" {
		t.Fatalf("state after the re-attach = %q, want replaying", st)
	}
	attA.NotifyLive() // the superseded attachment vouches for nothing
	if st, _ := hub.ReplicaState(0, 0); st != "replaying" {
		t.Fatalf("state after a superseded live report = %q, want replaying", st)
	}
	attB.NotifyLive()
	if err := hub.AwaitReplicaLive(0, 0, time.Second); err != nil {
		t.Fatal(err)
	}

	attA.Close() // the old connection's handler exits at last
	if st, _ := hub.ReplicaState(0, 0); st != "live" {
		t.Fatalf("state after the stale detach = %q, want live", st)
	}
	if !serving(hub, 0, 0) {
		t.Fatal("stale detach took the slot out of read service")
	}

	attB.Close()
	if st, _ := hub.ReplicaState(0, 0); st != "dead" {
		t.Fatalf("state after the owning attachment's detach = %q, want dead", st)
	}
	if serving(hub, 0, 0) {
		t.Fatal("detached slot still serving")
	}
	backend.ReplicaFinished(0, 0, 0, 0) // the FIN a worker's stop sends
}

// TestNetworkedReattachPublishesRestoreFloor pins the floor-at-attach rule
// over TCP. A worker compacts and reports floor F, crashes, and loses its
// chain; its successor restores from scratch — below F — while the log still
// retains the span. The hub must pin its truncation to the restore floor the
// new attach carries, not keep the predecessor's F: under F, a peer's
// compaction could truncate the log out from under the replay.
func TestNetworkedReattachPublishesRestoreFloor(t *testing.T) {
	edges := motifWorkload(41, 8, 200)
	// Slot 0/1 is never attached, so its zero floor keeps the whole log
	// retained and a scratch restore possible.
	hcfg := hubConfig(t, 1, 2, t.TempDir(), t.TempDir())
	hcfg.CheckpointInterval = time.Second
	hcfg.CompactEvery = 2
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}})
	wk, joinWorker := startWorker(t, wcfg)
	if err := hub.AwaitReplicaLive(0, 0, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	slot := hub.hub.slots[0][0]
	deadline := time.Now().Add(15 * time.Second)
	for slot.floor.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reported a floor")
		}
		time.Sleep(time.Millisecond)
	}
	wk.Abort()
	joinWorker()
	for {
		if st, _ := hub.ReplicaState(0, 0); st == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hub never noticed the crashed worker")
		}
		time.Sleep(time.Millisecond)
	}
	reported := slot.floor.Load()
	if err := os.RemoveAll(slot.dir); err != nil {
		t.Fatal(err)
	}

	// The successor cuts nothing, so the floor it attached with is the only
	// floor it ever publishes.
	wcfg.CheckpointInterval = 1000 * time.Hour
	_, joinWorker = startWorker(t, wcfg)
	if err := hub.AwaitReplicaLive(0, 0, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := slot.floor.Load(); got != 0 {
		t.Fatalf("slot floor after a scratch re-attach = %d (predecessor reported %d), want the restore floor 0", got, reported)
	}
	if st := hub.Stats(); st.LogTruncatedBelow != 0 {
		t.Fatalf("log truncated below %d under a replay from 0", st.LogTruncatedBelow)
	}
	hub.Shutdown()
	joinWorker()
}

// redialHold delays every write on a worker's sockets until its deadline:
// armed and followed by a drop, it holds each redial's hello, as a network
// partition would.
type redialHold struct{ until atomic.Int64 }

type heldWriter struct {
	codecutil.WriteSyncCloser
	h *redialHold
}

func (w heldWriter) Write(p []byte) (int, error) {
	time.Sleep(time.Until(time.Unix(0, w.h.until.Load())))
	return w.WriteSyncCloser.Write(p)
}

// startHeldWorker is startWorker for a worker whose sockets write through
// hold: the transport stack New dialed is replaced, before Start attaches
// any slot, by one with hold's wrapper.
func startHeldWorker(t *testing.T, cfg Config, hold *redialHold) (*Cluster, func()) {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := w.host.link.(*tcpLink)
	logID, _, _ := l.LogMeta()
	l.fw.Close()
	l.feed.Close()
	opts := transport.ClientOptions{Metrics: l.reg, WrapWriter: func(ws codecutil.WriteSyncCloser) codecutil.WriteSyncCloser {
		return heldWriter{ws, hold}
	}}
	if l.feed, err = transport.DialFeed(cfg.Join, opts); err != nil {
		t.Fatal(err)
	}
	l.fw = transport.NewCandForwarder(cfg.Join, logID, opts)
	w.Start()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Wait(); err != nil {
			t.Errorf("worker Wait: %v", err)
		}
	}()
	return w, func() { <-done }
}

// TestNetworkedShutdownWaitsForReconnectingWorker: a worker cut off
// mid-stream whose redial is held for 3 s — past any quiet window a drain
// could guess — while the hub shuts down still comes back, replays the
// closed log's tail and flushes: the hub's drain waits for the FIN its slots
// owe, and the delivered set is the no-fault oracle's.
func TestNetworkedShutdownWaitsForReconnectingWorker(t *testing.T) {
	edges := motifWorkload(17, 8, 200)
	want := oracleNotes(t, 2, 1, edges)

	hcfg := hubConfig(t, 2, 1, t.TempDir(), t.TempDir())
	notes := collectNotes(&hcfg)
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	hold := new(redialHold)
	_, joinWorker := startHeldWorker(t, wcfg, hold)
	awaitAllLive(t, hub)

	for _, e := range edges {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	until := time.Now().Add(3 * time.Second)
	hold.until.Store(until.UnixNano())
	hub.DropConnections()
	if err := hub.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if early := time.Until(until); early > 0 {
		t.Errorf("Shutdown returned %v before the held worker could write its FIN", early)
	}
	joinWorker()
	diffNotes(t, want, notes(), "held-redial")
	verifyAllFingerprints(t, hub)
}

// TestNetworkedShutdownNamesUnfinishedSlots: a worker that crashed and never
// came back leaves its slots owing a FIN. Shutdown waits NetDrainTimeout for
// it, runs the durable close anyway and fails loudly, naming the slots; the
// hub then reopens over the same directories and runs cleanly.
func TestNetworkedShutdownNamesUnfinishedSlots(t *testing.T) {
	logDir, ckptDir := t.TempDir(), t.TempDir()
	hcfg := hubConfig(t, 2, 1, logDir, ckptDir)
	hcfg.NetDrainTimeout = 500 * time.Millisecond
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wk, joinWorker := startWorker(t, wcfg)
	awaitAllLive(t, hub)
	for _, e := range motifWorkload(5, 8, 60) {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	wk.Abort()
	joinWorker()

	start := time.Now()
	err = hub.Shutdown()
	if d := time.Since(start); d > hcfg.NetDrainTimeout+time.Second {
		t.Errorf("Shutdown took %v, past NetDrainTimeout %v + 1s", d, hcfg.NetDrainTimeout)
	}
	if err == nil || !strings.Contains(err.Error(), "0/0, 1/0") {
		t.Fatalf("Shutdown = %v, want an error naming slots 0/0 and 1/0", err)
	}

	hub, err = New(hcfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	hub.Start()
	wcfg.Join = hub.ListenAddr()
	_, joinWorker = startWorker(t, wcfg)
	awaitAllLive(t, hub)
	if err := hub.Shutdown(); err != nil {
		t.Fatalf("Shutdown after the reopen: %v", err)
	}
	joinWorker()
	verifyAllFingerprints(t, hub)
}

// TestNetworkedWaitReportsRejectedHello: a worker whose feed hello the hub
// rejects — here a slot the hub does not have — ends with that error from
// Wait, so a worker process exits nonzero instead of looking finished.
func TestNetworkedWaitReportsRejectedHello(t *testing.T) {
	hcfg := hubConfig(t, 1, 1, t.TempDir(), t.TempDir())
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	defer hub.Stop()
	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 1}})
	wcfg.Replicas = 2
	wk, err := New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	wk.Start()
	done := make(chan error, 1)
	go func() { done <- wk.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("Wait = %v, want the hub's rejection of slot 0/1", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker never ended after the hub rejected its only slot")
	}
}

// TestNetworkedFinCarriesFinalFloor: the final cut of a worker's stop folds
// its chain into a new base — a floor advance made after its feed closed.
// The FIN carries it, so the hub's slot ends at the worker's final floor.
// Without periodic cuts, the first run's final cut leaves one delta and the
// second run's makes two, which is when the chain folds.
func TestNetworkedFinCarriesFinalFloor(t *testing.T) {
	edges := motifWorkload(3, 8, 120)
	logDir, ckptDir := t.TempDir(), t.TempDir()
	run := func(stretch []graph.Edge) (*Cluster, *Cluster) {
		hcfg := hubConfig(t, 1, 1, logDir, ckptDir)
		hcfg.CheckpointInterval = 1000 * time.Hour
		hcfg.CompactEvery = 2
		hub, err := New(hcfg)
		if err != nil {
			t.Fatal(err)
		}
		hub.Start()
		wk, joinWorker := startWorker(t, workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}}))
		awaitAllLive(t, hub)
		for _, e := range stretch {
			if err := hub.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := hub.Shutdown(); err != nil {
			t.Fatal(err)
		}
		joinWorker()
		return hub, wk
	}
	run(edges[:len(edges)/2])
	hub, wk := run(edges[len(edges)/2:])

	man, err := loadManifest(manifestPath(wk.host.replica(0, 0).dir), wk.runID)
	if err != nil {
		t.Fatal(err)
	}
	final := man.floorOffset()
	if final != uint64(len(edges)) {
		t.Fatalf("worker's final floor = %d, want the stream's end %d: the final cut did not fold", final, len(edges))
	}
	if got := hub.hub.slots[0][0].floor.Load(); got != final {
		t.Fatalf("hub slot floor = %d, want the worker's final floor %d", got, final)
	}
}
