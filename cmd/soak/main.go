// Command soak drives a durable cluster under sustained ingest while
// continuously injecting the full fault menu — replica kills and
// restores, node reprovisions, scale-out/scale-in, and whole-process
// restarts (Shutdown, then a new cluster over the same durable
// directories) — for a wall-clock budget, then proves the run changed
// nothing observable:
//
//   - the delivered notification multiset must equal a no-fault oracle
//     run over the same event stream (exactly-once, no loss, no dupes);
//   - every recorded state fingerprint must agree across replicas
//     (bit-identical recoverable state at every audited offset);
//   - the firehose log must have truncated (compaction keeps disk
//     bounded under churn);
//   - goroutine count and heap must not grow monotonically across waves
//     (no leaked workers or state across kill/reopen cycles).
//
// The process exits nonzero on the first violated invariant, so it can
// gate CI directly. Where the in-repo crash matrix probes each fault at
// surgically chosen pipeline stages, soak asks the complementary
// question: does the same machinery hold up under minutes of arbitrary
// interleaving?
//
// With -net the deployment under churn is networked instead: a hub plus
// one worker per replica index attached over real loopback sockets, and
// the fault menu becomes network faults — random connection drops
// mid-stream (every worker socket severed at seeded points inside a
// wave) and worker crashes (Abort: sockets drop, no flush, no final
// checkpoint cut) with recovery over the same durable chains. The same
// no-fault oracle equivalence, fingerprint audit, truncation, and
// resource-flatness invariants apply; in addition, a sample of broker reads
// through the hub follows every wave, and the run fails if none is ever
// answered or any outlives the transport's read timeout.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"motifstream/internal/cluster"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/transport"
)

func main() {
	dur := flag.Duration("dur", 2*time.Minute, "wall-clock churn budget before the final verification phase")
	seed := flag.Int64("seed", 1, "workload seed (same seed + same ops = same delivered set)")
	users := flag.Int("users", 48, "ring-graph population")
	wave := flag.Int("wave", 50, "motif completions published per churn wave")
	netMode := flag.Bool("net", false, "networked mode: hub + socket-attached workers under connection drops and worker crashes instead of the local lifecycle menu")
	flag.Parse()

	log.SetFlags(log.Ltime)
	if err := run(*dur, *seed, *users, *wave, *netMode); err != nil {
		log.Fatalf("soak: FAIL: %v", err)
	}
	fmt.Println("soak: PASS")
}

// noteKey identifies one delivered notification for multiset comparison.
type noteKey struct {
	user, item graph.VertexID
}

// collectNotes wires a mutex-guarded notification recorder into cfg and
// returns a snapshot function.
func collectNotes(cfg *cluster.Config) func() map[noteKey]int {
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

// ringStatic wires users 0..n-1 so each follows the next two; motifs can
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

// waveGen emits a seeded stream in waves: each step has two consecutive
// ring members follow a fresh target, completing a K=2 diamond. Stream
// time advances 3s per step so checkpoint cuts and retention sweeps keep
// firing throughout the run, and the global step counter keeps targets
// unique and timestamps monotonic across waves and restarts.
type waveGen struct {
	r     *rand.Rand
	users int
	step  int
}

func newWaveGen(seed int64, users int) *waveGen {
	return &waveGen{r: rand.New(rand.NewSource(seed)), users: users}
}

func (g *waveGen) wave(steps int) []graph.Edge {
	const t0 = int64(10_000_000)
	out := make([]graph.Edge, 0, 2*steps)
	for i := 0; i < steps; i++ {
		b1 := graph.VertexID(g.r.Intn(g.users))
		b2 := (b1 + 1) % graph.VertexID(g.users)
		target := graph.VertexID(100_000 + g.step)
		ts := t0 + int64(g.step)*3_000
		out = append(out,
			graph.Edge{Src: b1, Dst: target, Type: graph.Follow, TS: ts},
			graph.Edge{Src: b2, Dst: target, Type: graph.Follow, TS: ts + 1},
		)
		g.step++
	}
	return out
}

// soakCfg is the durable deployment under test: checkpoints, a durable
// firehose log with tiny segments (so restarts exercise WAL rotation and
// truncation within minutes), one mirrored base per partition (so
// reprovision always has a pool to rebuild from), the fingerprint audit
// on, the apply loop the facade and the benchmark run (batches of up to 16
// over 2 detection workers, committed in offset order), and a
// suppression-free deterministic delivery pipeline — the delivered
// multiset depends only on the event stream, never on faults.
func soakCfg(root string, seed int64, static []graph.Edge) cluster.Config {
	return cluster.Config{
		Partitions:  2,
		Replicas:    2,
		StaticEdges: static,
		Dynamic:     dynstore.Options{Retention: time.Hour},
		NewPrograms: func() []motif.Program {
			return []motif.Program{motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute})}
		},
		Seed:               seed,
		CheckpointDir:      filepath.Join(root, "ckpt"),
		CheckpointInterval: 3 * time.Second, // stream time: a cut per step
		CompactEvery:       2,               // fold chains constantly
		Audit:              true,
		LogDir:             filepath.Join(root, "log"),
		LogSegmentBytes:    16 << 10,
		MirrorBases:        1,
		ApplyBatch:         16,
		ApplyWorkers:       2,
		Delivery: delivery.Options{
			SleepStartHour: 1, SleepEndHour: 1, // equal = suppression off
			MaxPerUserPerDay: 1 << 30,
		},
	}
}

const awaitTimeout = 30 * time.Second

// soak is the harness both modes share: it owns the process that holds the
// firehose log — the whole cluster in local mode, the hub in networked mode —
// and with it the publish, stats and verify handles, the published stream the
// oracle replays, and the per-wave resource samples. A whole-process restart
// replaces the Cluster value wholesale, so every op goes through s.c.
type soak struct {
	cfg        cluster.Config
	c          *cluster.Cluster
	gen        *waveGen
	waveSteps  int
	published  []graph.Edge
	notes      func() map[noteKey]int
	goroutines []int
	heaps      []uint64
	waves      int
	// rng schedules injected faults from its own stream, so the workload is
	// identical across modes for the same seed; drops counts the
	// connections those faults severed.
	rng   *rand.Rand
	drops int
}

// op is one entry of a fault menu. Each leaves the deployment fully live so
// samples compare like with like.
type op struct {
	name string
	fn   func() error
}

// faults is what differs between the modes: the menu cycled for the
// duration budget, how the deployment is brought to its drained rest before
// the audit, and the mode's own end-of-run evidence — an error when the
// injection was vacuous, else the summary the audit's log line carries.
type faults interface {
	ops() []op
	drain() error
	evidence() (string, error)
}

// publishWave feeds one wave into the firehose; if blips > 0, every worker
// connection is severed at that many seeded random points mid-wave. A blip
// that lands while workers are still redialing from the previous one severs
// nothing — the running drop count, asserted nonzero at the end, keeps the
// injection honest without making the schedule timing-sensitive.
func (s *soak) publishWave(blips int) error {
	w := s.gen.wave(s.waveSteps)
	cut := make(map[int]bool, blips)
	for i := 0; i < blips; i++ {
		cut[s.rng.Intn(len(w))] = true
	}
	for i, e := range w {
		if cut[i] {
			s.drops += s.c.DropConnections()
		}
		if err := s.c.Publish(e); err != nil {
			return fmt.Errorf("publish: %w", err)
		}
	}
	s.published = append(s.published, w...)
	return nil
}

// waitForTruncation keeps publishing until the firehose compaction horizon
// has advanced past zero — proof disk use stays bounded under churn. The
// checkpoint writers drive truncation off stream time, so the wait must feed
// the stream rather than idle. Over sockets floors arrive a full
// publish→detect→ack→cut→report round-trip later, so that mode paces its
// waves — a tight loop would bury the run (and every later replay) under
// hundreds of thousands of events before the first report lands.
func (s *soak) waitForTruncation(pace time.Duration) error {
	deadline := time.Now().Add(awaitTimeout)
	for s.c.Stats().LogTruncatedBelow == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("firehose log never truncated (published %d events)", len(s.published))
		}
		if err := s.publishWave(0); err != nil {
			return err
		}
		time.Sleep(pace)
	}
	return nil
}

// await waits for slot (pid, r) to replay to live.
func (s *soak) await(pid, r int) error { return s.c.AwaitReplicaLive(pid, r, awaitTimeout) }

// sample records post-wave steady-state resource usage. Goroutine counts
// are taken with the topology back at rest (every op awaits live before
// the wave ends), so a leak shows as monotonic growth across samples.
func (s *soak) sample() {
	s.goroutines = append(s.goroutines, runtime.NumGoroutine())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heaps = append(s.heaps, ms.HeapAlloc)
}

// audit runs the full fingerprint audit over the drained deployment: every
// replica of every partition must have recorded bit-identical state at every
// audited offset.
func (s *soak) audit() error {
	records := 0
	for pid := 0; pid < s.cfg.Partitions; pid++ {
		rep, err := s.c.VerifyFingerprints(pid)
		if err != nil {
			return fmt.Errorf("VerifyFingerprints(%d): %w", pid, err)
		}
		if len(rep.Mismatches) > 0 {
			return fmt.Errorf("partition %d: state fingerprint mismatches: %+v", pid, rep.Mismatches)
		}
		records += rep.Records
	}
	if records == 0 {
		return fmt.Errorf("vacuous: audit enabled but no fingerprints recorded")
	}
	return s.noMismatches("pipeline")
}

// noMismatches fails when the pipeline's own fingerprint cross-checks
// counted a mismatch, or when the registry holds no such count at all.
func (s *soak) noMismatches(when string) error {
	n, ok := s.c.Metrics().CounterValue("cluster.audit_mismatches")
	if !ok {
		return fmt.Errorf("%s: no cluster.audit_mismatches counter in the registry", when)
	}
	if n != 0 {
		return fmt.Errorf("%s detected %d fingerprint mismatches", when, n)
	}
	return nil
}

// lifecycle is the local fault menu: one process holds both tiers, and the
// faults are the cluster's own lifecycle calls — kill/restore, reprovision,
// scale-out/in — applied to one replica index across every partition, plus
// whole-process restarts.
type lifecycle struct{ *soak }

// each applies one lifecycle call to replica idx of every partition.
func (l lifecycle) each(what string, idx int, call func(pid, r int) error) error {
	for pid := 0; pid < l.cfg.Partitions; pid++ {
		if err := call(pid, idx); err != nil {
			return fmt.Errorf("%s %d/%d: %w", what, pid, idx, err)
		}
	}
	return nil
}

// killIngestRestore kills replica idx everywhere, ingests a wave while it is
// dead, and restores it to live.
func (l lifecycle) killIngestRestore(idx int) error {
	if err := l.each("kill", idx, func(pid, r int) error { return l.c.KillReplica(pid, r) }); err != nil {
		return err
	}
	if err := l.publishWave(0); err != nil {
		return err
	}
	if err := l.each("restore", idx, func(pid, r int) error { return l.c.RestoreReplica(pid, r) }); err != nil {
		return err
	}
	return l.each("await", idx, l.await)
}

// addAll scales every partition out by one replica and returns the (per
// the placement contract, common) new index.
func (l lifecycle) addAll() (int, error) {
	idx := -1
	for pid := 0; pid < l.cfg.Partitions; pid++ {
		got, err := l.c.AddReplica(pid)
		if err != nil {
			return -1, fmt.Errorf("add replica to %d: %w", pid, err)
		}
		if idx == -1 {
			idx = got
		} else if got != idx {
			return -1, fmt.Errorf("AddReplica index skew: partition %d got %d, earlier got %d", pid, got, idx)
		}
	}
	return idx, nil
}

func (l lifecycle) ops() []op {
	return []op{
		{"kill r1, ingest while dead, restore", func() error { return l.killIngestRestore(1) }},
		{"reprovision r1 under ingest", func() error {
			if err := l.publishWave(0); err != nil {
				return err
			}
			if err := l.each("reprovision", 1, func(pid, r int) error { return l.c.ReprovisionReplica(pid, r) }); err != nil {
				return err
			}
			return l.each("await", 1, l.await)
		}},
		{"scale out, ingest, scale back in", func() error {
			idx, err := l.addAll()
			if err != nil {
				return err
			}
			if err := l.publishWave(0); err != nil {
				return err
			}
			if err := l.each("await", idx, l.await); err != nil {
				return err
			}
			return l.each("decommission", idx, func(pid, r int) error { return l.c.DecommissionReplica(pid, r) })
		}},
		{"whole-process restart", func() error {
			// The cross-process boundary: graceful shutdown, then a brand-new
			// Cluster over the same durable directories.
			l.c.Shutdown()
			c, err := cluster.New(l.cfg)
			if err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			c.Start()
			l.c = c
			return l.publishWave(0)
		}},
		{"kill r0 (emitter), ingest, restore", func() error { return l.killIngestRestore(0) }},
		{"ingest and verify log truncation", func() error {
			if err := l.publishWave(0); err != nil {
				return err
			}
			return l.waitForTruncation(0)
		}},
	}
}

// drain restores anything left dead and shuts the cluster down; every
// remaining replica must have drained live.
func (l lifecycle) drain() error {
	for pid := 0; pid < l.cfg.Partitions; pid++ {
		for r := 0; r < l.c.Replicas(pid); r++ {
			if state, _ := l.c.ReplicaState(pid, r); state == "dead" {
				if err := l.c.RestoreReplica(pid, r); err != nil {
					return fmt.Errorf("final restore %d/%d: %w", pid, r, err)
				}
			}
		}
	}
	l.c.Shutdown()
	for pid := 0; pid < l.cfg.Partitions; pid++ {
		for r := 0; r < l.c.Replicas(pid); r++ {
			if state, _ := l.c.ReplicaState(pid, r); state != "live" && state != "removed" {
				return fmt.Errorf("replica %d/%d state %q after drain, want live", pid, r, state)
			}
		}
	}
	return nil
}

// evidence: counters reset at each whole-process restart, so the record
// count covers the final incarnation only; the delivered-set oracle covers
// the whole run.
func (l lifecycle) evidence() (string, error) {
	return fmt.Sprintf(" (%d audit records since last restart)", l.c.Metrics().Counter("cluster.audit_records").Value()), nil
}

// netWorker is one in-process stand-in for a worker OS process: its own
// Cluster joined to the hub over a real loopback socket, with the worker
// main loop (Wait) on a goroutine whose result lands on done.
type netWorker struct {
	cfg  cluster.Config
	c    *cluster.Cluster
	done chan error
}

func startNetWorker(cfg cluster.Config) (*netWorker, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	w := &netWorker{cfg: cfg, c: c, done: make(chan error, 1)}
	go func() { w.done <- c.Wait() }()
	return w, nil
}

func (w *netWorker) join(timeout time.Duration) error {
	select {
	case err := <-w.done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("worker owning %v did not exit within %v", w.cfg.OwnedReplicas, timeout)
	}
}

// network is the networked fault menu: s.c is a hub, every replica index
// runs in a worker (owning that index across every partition) attached over
// a real loopback socket, and the faults are connection drops and worker
// crashes. A worker crash replaces the netWorker value wholesale.
type network struct {
	*soak
	workers []*netWorker
	// reconnects sums the reconnect counters of workers since crashed
	// (counters die with the Cluster).
	reconnects uint64
	// reads counts the hub reads sampleReads issued, answered those that
	// returned a non-empty answer, refused those the broker turned away.
	reads, answered, refused int
}

// readsPerWave is the number of RecommendationsFor reads sampleReads issues
// after each wave, besides one TopItems.
const readsPerWave = 16

// sampleReads reads through the hub after a wave, over whatever drops and
// crashes the wave injected: RecommendationsFor for ring users in turn, then
// one TopItems fan-out. A read may be refused (every replica of a partition
// reconnecting) or empty; none may outlive the transport's read timeout,
// which bounds a read waiting behind its feed.
func (n *network) sampleReads() error {
	for i := 0; i <= readsPerWave; i++ {
		start := time.Now()
		var got int
		var err error
		if i < readsPerWave {
			recs, e := n.c.RecommendationsFor(graph.VertexID(n.reads % n.gen.users))
			got, err = len(recs), e
		} else {
			top, e := n.c.TopItems(5)
			got, err = len(top), e
		}
		if d := time.Since(start); d > transport.ReadTimeout+time.Second {
			return fmt.Errorf("hub read took %v, past the %v read timeout", d, transport.ReadTimeout)
		}
		n.reads++
		if err != nil {
			n.refused++
		} else if got > 0 {
			n.answered++
		}
	}
	return nil
}

// startNetwork attaches one worker per replica index to the hub s.c and
// waits for every slot to go live.
func startNetwork(s *soak) (*network, error) {
	n := &network{soak: s}
	for i := 0; i < s.cfg.Replicas; i++ {
		wcfg := s.cfg
		wcfg.Listen = ""
		wcfg.LogDir = ""
		wcfg.Join = s.c.ListenAddr()
		wcfg.OnNotify = nil
		wcfg.Metrics = nil
		for pid := 0; pid < s.cfg.Partitions; pid++ {
			wcfg.OwnedReplicas = append(wcfg.OwnedReplicas, [2]int{pid, i})
		}
		w, err := startNetWorker(wcfg)
		if err != nil {
			return nil, err
		}
		n.workers = append(n.workers, w)
		for _, or := range wcfg.OwnedReplicas {
			if err := s.await(or[0], or[1]); err != nil {
				return nil, fmt.Errorf("worker %d: %w", i, err)
			}
		}
	}
	log.Printf("networked deployment: hub %s + %d workers", s.c.ListenAddr(), len(n.workers))
	return n, nil
}

// crashWorker crashes one worker (Abort: sockets drop, no flush, no
// final checkpoint cut — the in-process equivalent of SIGKILL), ingests
// a wave while its slots are dead and the peer covers delivery, then
// brings a fresh worker up over the same durable chains and waits for it
// to replay live.
func (n *network) crashWorker(i int) error {
	w := n.workers[i]
	n.reconnects += w.c.Metrics().Counter("transport.reconnects").Value()
	w.c.Abort()
	if err := w.join(awaitTimeout); err != nil {
		return err
	}
	// The hub's feed handlers notice the severed sockets asynchronously.
	for _, or := range w.cfg.OwnedReplicas {
		deadline := time.Now().Add(awaitTimeout)
		for {
			st, err := n.c.ReplicaState(or[0], or[1])
			if err != nil {
				return err
			}
			if st == "dead" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("crashed worker slot %d/%d state %q, want dead", or[0], or[1], st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := n.publishWave(0); err != nil {
		return err
	}
	w2, err := startNetWorker(w.cfg)
	if err != nil {
		return err
	}
	n.workers[i] = w2
	for _, or := range w.cfg.OwnedReplicas {
		if err := n.await(or[0], or[1]); err != nil {
			return fmt.Errorf("restarted worker: %w", err)
		}
	}
	return nil
}

// ops is the networked menu; every entry ends with a sample of hub reads.
func (n *network) ops() []op {
	ops := []op{
		{"ingest through one random mid-wave connection drop", func() error { return n.publishWave(1) }},
		{"crash worker r0 mid-stream, restart over same chains", func() error { return n.crashWorker(0) }},
		{"ingest through a double blip (drop during replay)", func() error { return n.publishWave(2) }},
		{"crash worker r1 mid-stream, restart over same chains", func() error { return n.crashWorker(1) }},
		{"ingest with a drop and verify log truncation", func() error {
			if err := n.publishWave(1); err != nil {
				return err
			}
			return n.waitForTruncation(25 * time.Millisecond)
		}},
	}
	for i := range ops {
		fn := ops[i].fn
		ops[i].fn = func() error {
			if err := fn(); err != nil {
				return err
			}
			return n.sampleReads()
		}
	}
	return ops
}

// drain: hub EOS, workers flush + FIN and exit.
func (n *network) drain() error {
	n.c.Shutdown()
	for _, w := range n.workers {
		if err := w.join(time.Minute); err != nil {
			return err
		}
	}
	return nil
}

// evidence is the fault injection's vacuousness check: connections were
// severed, workers reconnected through it, and reads through the hub were
// answered.
func (n *network) evidence() (string, error) {
	if n.drops == 0 {
		return "", fmt.Errorf("vacuous: no connection was ever severed")
	}
	for _, w := range n.workers {
		n.reconnects += w.c.Metrics().Counter("transport.reconnects").Value()
	}
	if n.reconnects == 0 {
		return "", fmt.Errorf("no worker ever reconnected despite %d severed connections", n.drops)
	}
	if n.answered == 0 {
		return "", fmt.Errorf("vacuous: none of %d hub reads returned an answer", n.reads)
	}
	return fmt.Sprintf("; %d reconnects absorbed %d severed connections; %d hub reads: %d answered, %d refused, %d read errors",
		n.reconnects, n.drops, n.reads, n.answered, n.refused, n.c.Metrics().Counter("transport.read.errors").Value()), nil
}

// checkGoroutines fails on monotonic growth: once warmed up, the low
// watermark of the final waves must not sit above the whole early range.
// A fixed slack absorbs scheduler and finalizer jitter; a real leak (one
// worker per kill/restore cycle, say) clears it within a few waves.
func checkGoroutines(samples []int) error {
	const warmup, window, slack = 2, 3, 16
	if len(samples) < warmup+2*window {
		return nil // too short a run to call it a trend
	}
	early := samples[warmup : warmup+window]
	late := samples[len(samples)-window:]
	earlyMax, lateMin := early[0], late[0]
	for _, v := range early {
		if v > earlyMax {
			earlyMax = v
		}
	}
	for _, v := range late {
		if v < lateMin {
			lateMin = v
		}
	}
	if lateMin > earlyMax+slack {
		return fmt.Errorf("goroutines grew monotonically: early max %d, late min %d (samples %v)",
			earlyMax, lateMin, samples)
	}
	return nil
}

// checkHeap fails on egregious post-GC heap growth. The workload keeps
// every published edge in the dynamic store (retention exceeds the run),
// so the heap legitimately grows with the stream; the bound is a
// generous multiple over the warmed-up baseline that a per-wave leak of
// cluster-sized state would still blow through.
func checkHeap(samples []uint64) error {
	const warmup = 2
	if len(samples) <= warmup {
		return nil
	}
	base := samples[warmup]
	if base < 32<<20 {
		base = 32 << 20
	}
	if last := samples[len(samples)-1]; last > 4*base {
		return fmt.Errorf("heap grew from %d to %d bytes post-GC (>4x warmed-up baseline)", samples[warmup], last)
	}
	return nil
}

// oracle replays every published edge through a fresh no-fault cluster
// of the same shape and returns its delivered multiset.
func oracle(root string, seed int64, static []graph.Edge, published []graph.Edge) (map[noteKey]int, error) {
	cfg := soakCfg(root, seed, static)
	snapshot := collectNotes(&cfg)
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	c.Start()
	for _, e := range published {
		if err := c.Publish(e); err != nil {
			return nil, fmt.Errorf("oracle publish: %w", err)
		}
	}
	c.Stop()
	return snapshot(), nil
}

// compareNotes fails unless the churn run delivered exactly the oracle
// multiset.
func compareNotes(want, got map[noteKey]int) error {
	if len(want) == 0 {
		return fmt.Errorf("vacuous: oracle run delivered nothing")
	}
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("notification %v delivered %d times under churn, %d in oracle", k, got[k], n)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("churn run delivered %v, oracle did not", k)
		}
	}
	return nil
}

// run drives one soak: the deployment the mode selects under its fault menu
// for the duration budget, then drain, fingerprint audit, the mode's own
// evidence, oracle equivalence and the resource trend checks.
func run(dur time.Duration, seed int64, users, wave int, netMode bool) error {
	root, err := os.MkdirTemp("", "soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	static := ringStatic(users)
	s := &soak{
		cfg:       soakCfg(filepath.Join(root, "churn"), seed, static),
		gen:       newWaveGen(seed, users),
		waveSteps: wave,
		rng:       rand.New(rand.NewSource(seed ^ 0x6e6574)),
	}
	if netMode {
		s.cfg.Listen = "127.0.0.1:0"
	}
	s.notes = collectNotes(&s.cfg)
	if s.c, err = cluster.New(s.cfg); err != nil {
		return err
	}
	s.c.Start()
	var f faults = lifecycle{s}
	if netMode {
		if f, err = startNetwork(s); err != nil {
			return err
		}
	}

	log.Printf("churn phase: %v budget, %d users, %d completions/wave", dur, users, wave)
	ops := f.ops()
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		op := ops[s.waves%len(ops)]
		start := time.Now()
		if err := op.fn(); err != nil {
			return fmt.Errorf("wave %d (%s): %w", s.waves, op.name, err)
		}
		// Mid-run invariant: the pipeline's own fingerprint cross-checks
		// found nothing.
		if err := s.noMismatches(fmt.Sprintf("wave %d: pipeline", s.waves)); err != nil {
			return err
		}
		s.sample()
		s.waves++
		log.Printf("wave %3d  %-52s %6s  %d events  %d drops  %d goroutines",
			s.waves, op.name, time.Since(start).Round(time.Millisecond), len(s.published),
			s.drops, s.goroutines[len(s.goroutines)-1])
	}
	if s.waves < len(ops) {
		return fmt.Errorf("only %d waves in %v: every op must run at least once (raise -dur)", s.waves, dur)
	}

	log.Printf("verification phase: %d waves, %d events published, %d connections severed", s.waves, len(s.published), s.drops)
	if err := f.drain(); err != nil {
		return err
	}
	if err := s.audit(); err != nil {
		return err
	}
	summary, err := f.evidence()
	if err != nil {
		return err
	}
	log.Printf("fingerprint audit clean%s", summary)

	want, err := oracle(filepath.Join(root, "oracle"), seed, static, s.published)
	if err != nil {
		return err
	}
	if err := compareNotes(want, s.notes()); err != nil {
		return err
	}
	log.Printf("oracle equivalence: %d distinct notifications match exactly", len(want))

	if err := checkGoroutines(s.goroutines); err != nil {
		return err
	}
	if err := checkHeap(s.heaps); err != nil {
		return err
	}
	log.Printf("resource check: goroutines %v, heap %d -> %d bytes",
		s.goroutines, s.heaps[0], s.heaps[len(s.heaps)-1])
	return nil
}
