package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"motifstream"
	"motifstream/internal/graph"
	"motifstream/internal/stream"
	"motifstream/internal/workload"
)

// TestMain doubles as the re-exec target: with MAGICRECS_BE_MAIN=1 the
// test binary behaves as the magicrecs CLI, which lets the multi-process
// tests spawn real worker OS processes without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("MAGICRECS_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"audit without checkpointdir", []string{"-audit"}, "-audit requires -checkpointdir"},
		{"restarts without dirs", []string{"-restarts=1"}, "-restarts requires -checkpointdir"},
		{"restarts without checkpointdir", []string{"-restarts=1", "-logdir=x"}, "-restarts requires -checkpointdir"},
		{"listen and join", []string{"-listen=:0", "-join=h:1", "-checkpointdir=b"}, "mutually exclusive"},
		{"listen without dirs", []string{"-listen=:0"}, "-listen requires -checkpointdir"},
		{"listen with logdir only", []string{"-listen=:0", "-logdir=a"}, "-listen requires -checkpointdir"},
		{"join without owned", []string{"-join=h:1", "-checkpointdir=b"}, "-join requires -owned"},
		{"join without checkpointdir", []string{"-join=h:1", "-owned=0/0"}, "-join requires -checkpointdir"},
		{"join with logdir", []string{"-join=h:1", "-owned=0/0", "-checkpointdir=b", "-logdir=a"}, "-join forbids -logdir"},
		{"owned without join", []string{"-owned=0/0"}, "-owned requires -join"},
		{"workerprocs without listen", []string{"-workerprocs=2"}, "-workerprocs requires -listen"},
		{"lifecycle flags in networked mode", []string{"-listen=:0", "-checkpointdir=b", "-scale-events=1"}, "not available with -listen/-join"},
		{"owned slot out of range", []string{"-join=h:1", "-owned=5/9", "-checkpointdir=b"}, "outside 20 partitions x 1 replicas"},
		{"owned malformed", []string{"-join=h:1", "-owned=5", "-checkpointdir=b"}, "not partition/replica"},
		{"motifs missing file", []string{"-motifs=/nonexistent/standing.motif"}, "-motifs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			code := run(tc.args, &buf)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2", code)
			}
			out := buf.String()
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
			if !strings.Contains(out, "Usage of magicrecs") {
				t.Fatalf("validation failure did not print usage:\n%s", out)
			}
		})
	}
}

// TestMotifsFlagRejectsBadSource checks that a -motifs file that fails to
// compile aborts before any workload is generated.
func TestMotifsFlagRejectsBadSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.motif")
	if err := os.WriteFile(path, []byte("motif bogus"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := run([]string{"-motifs=" + path}, &buf); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(buf.String(), "-motifs") || !strings.Contains(buf.String(), "motifdsl") {
		t.Fatalf("output missing compile error:\n%s", buf.String())
	}
}

// noteKey identifies a delivered (user, item) push; with suppression
// reduced to dedup-only, the delivered set is deterministic across
// process topologies and crash schedules.
type noteKey struct {
	user, item graph.VertexID
}

func baseOptions(ckptDir, logDir string) motifstream.ClusterOptions {
	return motifstream.ClusterOptions{
		Partitions:             2,
		Replicas:               1,
		K:                      2,
		Window:                 10 * time.Minute,
		MaxInfluencers:         200,
		MaxFanout:              64,
		DisableSleepHours:      true,
		MaxPushesPerUserPerDay: 1 << 30,
		Seed:                   1,
		CheckpointDir:          ckptDir,
		CheckpointInterval:     2 * time.Second,
		LogDir:                 logDir,
		Audit:                  true,
	}
}

// TestMultiProcessCrashRestart is the networked crash matrix at the OS
// process level: a hub in this process, workers as SIGKILL-able child
// processes of the test binary, and the single-process run as the
// delivered-set oracle.
func TestMultiProcessCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	tmp := t.TempDir()

	gcfg := workload.GraphConfig{Users: 60, AvgFollows: 6, ZipfS: 1.2, Seed: 3}
	scfg := workload.StreamConfig{
		Users: 60, Events: 600, Rate: 50,
		BurstFraction: 0.5, BurstMeanSize: 6, BurstWindow: 2 * time.Minute,
		ContentFraction: 0.25, ZipfS: 1.3, Seed: 5,
	}
	static := workload.GenFollowGraph(gcfg)
	events := workload.GenEventStream(scfg)
	staticFile := filepath.Join(tmp, "static.edges")
	streamFile := filepath.Join(tmp, "stream.edges")
	writeEdgeFile(t, staticFile, static)
	writeEdgeFile(t, streamFile, events)

	// Oracle: the same workload through a single in-process cluster.
	var mu sync.Mutex
	want := map[noteKey]bool{}
	oopts := baseOptions(filepath.Join(tmp, "oracle-ckpt"), filepath.Join(tmp, "oracle-log"))
	oopts.OnNotify = func(n motifstream.Notification) {
		mu.Lock()
		want[noteKey{n.Candidate.User, n.Candidate.Item}] = true
		mu.Unlock()
	}
	oracle, err := motifstream.NewCluster(static, oopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := oracle.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	oracle.Shutdown()
	if len(want) == 0 {
		t.Fatal("oracle delivered nothing; workload too weak to test against")
	}

	// Networked: hub here, one worker process per partition.
	ckptDir := filepath.Join(tmp, "ckpt")
	got := map[noteKey]bool{}
	hopts := baseOptions(ckptDir, filepath.Join(tmp, "log"))
	hopts.Listen = "127.0.0.1:0"
	hopts.OnNotify = func(n motifstream.Notification) {
		mu.Lock()
		got[noteKey{n.Candidate.User, n.Candidate.Item}] = true
		mu.Unlock()
	}
	hub, err := motifstream.NewCluster(static, hopts)
	if err != nil {
		t.Fatal(err)
	}
	addr := hub.ListenAddr()
	workerArgs := func(owned string) []string {
		return []string{
			"-join", addr, "-owned", owned, "-checkpointdir", ckptDir,
			"-static", staticFile, "-stream", streamFile,
			"-partitions", "2", "-replicas", "1", "-k", "2",
			"-maxfanout", "64", "-queuemedian", "0s", "-queuep99", "0s",
			"-checkpointinterval", "2s", "-audit", "-progress", "0",
		}
	}
	workerA := spawnTestWorker(t, workerArgs("0/0"))
	workerB := spawnTestWorker(t, workerArgs("1/0"))

	third := len(events) / 3
	for _, e := range events[:third] {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	// Kill worker A the way machines die: SIGKILL, no flush, no FIN.
	if err := workerA.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	workerA.cmd.Wait() // reaps the kill; exit status is expected to be bad
	awaitState(t, hub, 0, 0, "dead")

	// The stream keeps flowing while partition 0 has no worker.
	for _, e := range events[third : 2*third] {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	// Respawn over the same slots and directories: checkpoint restore plus
	// socket replay from the durable floor.
	workerA2 := spawnTestWorker(t, workerArgs("0/0"))
	if err := hub.AwaitReplicaLive(0, 0, 30*time.Second); err != nil {
		t.Fatalf("respawned worker never went live: %v", err)
	}
	for _, e := range events[2*third:] {
		if err := hub.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	hub.Shutdown()
	waitWorker(t, workerA2, "respawned worker A")
	waitWorker(t, workerB, "worker B")

	mu.Lock()
	defer mu.Unlock()
	for k := range want {
		if !got[k] {
			t.Errorf("missing push user=%d item=%d", k.user, k.item)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected push user=%d item=%d", k.user, k.item)
		}
	}
	if s := hub.Stats(); s.Delivered == 0 {
		t.Error("hub delivered nothing")
	}
	for pid := 0; pid < 2; pid++ {
		rep, err := hub.VerifyFingerprints(pid)
		if err != nil {
			t.Fatalf("verify partition %d: %v", pid, err)
		}
		if len(rep.Mismatches) > 0 {
			t.Errorf("partition %d: %d fingerprint mismatches", pid, len(rep.Mismatches))
		}
		if rep.Records == 0 {
			t.Errorf("partition %d: no audit records survived the crash schedule", pid)
		}
	}
}

// TestWorkerProcsEndToEnd drives the -workerprocs path: one hub process
// (the re-exec'd test binary) spawning its own worker children, run to
// completion over a recorded workload.
func TestWorkerProcsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	tmp := t.TempDir()
	gcfg := workload.GraphConfig{Users: 40, AvgFollows: 5, ZipfS: 1.2, Seed: 11}
	scfg := workload.StreamConfig{
		Users: 40, Events: 300, Rate: 100,
		BurstFraction: 0.5, BurstMeanSize: 5, BurstWindow: 2 * time.Minute,
		ContentFraction: 0.25, ZipfS: 1.3, Seed: 13,
	}
	staticFile := filepath.Join(tmp, "static.edges")
	streamFile := filepath.Join(tmp, "stream.edges")
	writeEdgeFile(t, staticFile, workload.GenFollowGraph(gcfg))
	writeEdgeFile(t, streamFile, workload.GenEventStream(scfg))

	cmd := exec.Command(os.Args[0],
		"-listen", "127.0.0.1:0", "-workerprocs", "2",
		"-checkpointdir", filepath.Join(tmp, "ckpt"), // the hub's log goes under it
		"-static", staticFile, "-stream", streamFile,
		"-partitions", "2", "-replicas", "1", "-k", "2",
		"-queuemedian", "0s", "-queuep99", "0s", "-audit", "-progress", "0")
	cmd.Env = append(os.Environ(), "MAGICRECS_BE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("hub process failed: %v\n%s", err, out)
	}
	for _, wantLine := range []string{"spawning 2 worker processes", "worker: joined", "=== run complete ===", "audit:"} {
		if !strings.Contains(string(out), wantLine) {
			t.Errorf("output missing %q:\n%s", wantLine, out)
		}
	}
	if strings.Contains(string(out), "AUDIT MISMATCH") {
		t.Errorf("fingerprint mismatch in run:\n%s", out)
	}
}

type testWorker struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

func spawnTestWorker(t *testing.T, args []string) *testWorker {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MAGICRECS_BE_MAIN=1")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &testWorker{cmd: cmd, out: &buf}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return w
}

func waitWorker(t *testing.T, w *testWorker, label string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s exited with %v\n%s", label, err, w.out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not exit after hub shutdown\n%s", label, w.out.String())
	}
}

func awaitState(t *testing.T, c *motifstream.Cluster, pid, r int, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		state, err := c.ReplicaState(pid, r)
		if err != nil {
			t.Fatal(err)
		}
		if state == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d/%d state = %q, want %q", pid, r, state, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func writeEdgeFile(t *testing.T, path string, edges []graph.Edge) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteEdges(f, edges); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
