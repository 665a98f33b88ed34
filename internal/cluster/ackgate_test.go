package cluster

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"motifstream/internal/delivery"
)

// The checkpoint ack gate: a durable cut may only cover offsets the hub's
// delivery loop has decided. These tests stall the delivery loop inside
// OnNotify and check that no cut runs ahead of it, on either link.

// stallAfterFirst wires an OnNotify into cfg that records every delivered
// notification and blocks inside the first one until release is called.
// stalled reports whether the delivery loop is blocked there; delivered
// copies what was recorded so far.
func stallAfterFirst(cfg *Config) (stalled func() bool, release func(), delivered func() map[noteKey]bool) {
	var (
		mu    sync.Mutex
		got   = map[noteKey]bool{}
		in    atomic.Bool
		once  sync.Once
		gate  = make(chan struct{})
		first sync.Once
	)
	cfg.OnNotify = func(n delivery.Notification) {
		mu.Lock()
		got[noteKey{n.Candidate.User, n.Candidate.Item}] = true
		mu.Unlock()
		first.Do(func() {
			in.Store(true)
			<-gate
		})
	}
	delivered = func() map[noteKey]bool {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[noteKey]bool, len(got))
		for k := range got {
			out[k] = true
		}
		return out
	}
	return in.Load, func() { once.Do(func() { close(gate) }) }, delivered
}

// copyTree copies src to a fresh directory under dst, retrying when a file
// vanishes mid-copy (a writer replacing a manifest or removing segments).
func copyTree(t *testing.T, src, dst string) string {
	t.Helper()
	for attempt := 0; ; attempt++ {
		out := filepath.Join(dst, fmt.Sprintf("%s-%d", filepath.Base(src), attempt))
		err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(src, path)
			if d.IsDir() {
				return os.MkdirAll(filepath.Join(out, rel), 0o755)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(out, rel), data, 0o644)
		})
		if err == nil {
			return out
		}
		if attempt == 9 {
			t.Fatalf("copy %s: %v", src, err)
		}
	}
}

// TestHardCrashLosesNoUndecidedOffset takes what a SIGKILL would leave on
// disk while the delivery loop is stalled early in the stream, and restarts
// over it. Every replica has either run to the end of what was published or
// is parked in the ack gate when the copy is taken. Every notification an
// uninterrupted run makes below the recovered log head must be delivered
// before the copy or after the restart: no cut may cover an offset whose
// candidates were only queued.
func TestHardCrashLosesNoUndecidedOffset(t *testing.T) {
	static := ringStatic(40)
	edges := motifWorkload(7, 40, 1000)
	cfg := durableConfig(t, static)
	stalled, release, delivered := stallAfterFirst(&cfg)
	defer release()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var published atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, e := range edges {
			if err := c.Publish(e); err != nil {
				t.Error(err)
				return
			}
		}
		published.Store(true)
	}()

	settled := func() bool {
		if !stalled() {
			return false
		}
		head, idle := c.hub.firehose.Published(), 0
		for _, rep := range c.host.reps {
			if len(rep.writer.jobs) > 0 {
				return false
			}
			if published.Load() && rep.applied.Load() == head {
				idle++
			}
		}
		return int(c.hub.waiters.Load())+idle >= len(c.host.reps)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatal("replicas neither parked in the ack gate nor ran to the end of the stream")
		}
		time.Sleep(time.Millisecond)
	}
	// The log first: a chain copied after it lies at or below its head.
	scratch := t.TempDir()
	logCopy := copyTree(t, cfg.LogDir, scratch)
	ckptCopy := copyTree(t, cfg.CheckpointDir, scratch)
	before := delivered()
	release()
	<-done
	c.Stop()

	rcfg := cfg
	rcfg.LogDir, rcfg.CheckpointDir = logCopy, ckptCopy
	after := collectNotes(&rcfg)
	c2, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	head := c2.hub.firehose.Published()
	c2.Start()
	if err := c2.Shutdown(); err != nil {
		t.Fatal(err)
	}

	ocfg := recoveryConfig(t, static)
	want := collectNotes(&ocfg)
	oracle, err := New(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Start()
	for _, e := range edges[:head] {
		if err := oracle.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	oracle.Stop()

	got, ref := after(), want()
	if len(ref) == 0 {
		t.Fatal("vacuous: the uninterrupted run delivered nothing below the recovered head")
	}
	missing := 0
	for k := range ref {
		if !before[k] && got[k] == 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d notifications below the recovered log head %d never delivered", missing, len(ref), head)
	}
}

// TestNetworkedCutWaitsForDecision: a worker's checkpoint cut waits for the
// hub's ack, and the hub acks a frame only once its delivery loop has
// decided it. With the delivery loop stalled, the worker's first cut times
// out (NetDrainTimeout) and is skipped; no segment is written.
func TestNetworkedCutWaitsForDecision(t *testing.T) {
	hcfg := hubConfig(t, 2, 1, t.TempDir(), t.TempDir())
	_, release, _ := stallAfterFirst(&hcfg)
	defer release()
	hub, err := New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Start()
	wcfg := workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}, {1, 0}})
	wcfg.NetDrainTimeout = 300 * time.Millisecond
	w, joinWorker := startWorker(t, wcfg)
	awaitAllLive(t, hub)
	edges := motifWorkload(42, 8, 400)
	for _, e := range edges {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for counter(t, w, "cluster.checkpoints")+counter(t, w, "cluster.checkpoint_errors") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never reached a cut")
		}
		time.Sleep(time.Millisecond)
	}
	if n := counter(t, w, "cluster.checkpoints"); n != 0 {
		t.Fatalf("the worker wrote %d segments while the hub had decided nothing past the first push", n)
	}

	// Drain before the shutdown, so the worker's final flush fits its short
	// NetDrainTimeout.
	release()
	for _, rep := range w.host.reps {
		for rep.applied.Load() < uint64(len(edges)) {
			if time.Now().After(deadline) {
				t.Fatal("the worker never applied the stream")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !w.host.link.(*tcpLink).fw.WaitDrained(15 * time.Second) {
		t.Fatal("the hub never acked the worker's candidates")
	}
	hub.Shutdown()
	joinWorker()
}
