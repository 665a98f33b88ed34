package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/queue"
	"motifstream/internal/racetest"
)

// TestCkptClockNormalCadence pins the clock's ordinary behavior: with
// timestamps advancing well under the interval, cuts land once per
// interval and the clock tracks stream time exactly (the clamp never
// engages).
func TestCkptClockNormalCadence(t *testing.T) {
	const interval = int64(1000)
	var k ckptClock
	cuts := 0
	for ts := int64(5_000); ts <= 25_000; ts += 100 {
		if k.tick(ts, interval) {
			cuts++
			if k.lastTS != ts {
				t.Fatalf("clamp engaged on a normal stream: clock %d at ts %d", k.lastTS, ts)
			}
		}
	}
	if cuts != 20 {
		t.Fatalf("cuts = %d over 20 intervals, want 20", cuts)
	}
}

// TestCkptClockOutlierBounded is the regression for the unbounded
// suppression window: one future-dated event from a clock-skewed producer
// used to set the clock to its timestamp, suppressing every later cut
// until stream time caught up. The clamped clock may defer cuts by at
// most ~three intervals after the outlier.
func TestCkptClockOutlierBounded(t *testing.T) {
	const interval = int64(1000)
	var k ckptClock
	ts := int64(5_000)
	for ; ts < 10_000; ts += 100 {
		k.tick(ts, interval)
	}
	// A producer an hour in the future.
	if !k.tick(ts+3_600_000, interval) {
		t.Fatal("outlier did not trigger a cut")
	}
	if jump := k.lastTS - ts; jump > 2*interval {
		t.Fatalf("clock jumped %dms past the stream on the outlier, want <= %d", jump, 2*interval)
	}
	// Back to normal stream time: a cut must land within three intervals.
	sinceCut := int64(0)
	for ; ts < 60_000; ts += 100 {
		sinceCut += 100
		if k.tick(ts, interval) {
			if sinceCut > 3*interval {
				t.Fatalf("first post-outlier cut took %dms of stream time, want <= %d", sinceCut, 3*interval)
			}
			sinceCut = 0
		}
	}
	if sinceCut > 3*interval {
		t.Fatalf("cuts still suppressed %dms after the outlier", sinceCut)
	}
}

// TestCkptClockQuietGapReanchors: a genuine idle gap (no events for many
// intervals) cuts immediately when traffic resumes and re-anchors within
// one follow-up event, rather than dribbling catch-up cuts.
func TestCkptClockQuietGapReanchors(t *testing.T) {
	const interval = int64(1000)
	var k ckptClock
	for ts := int64(5_000); ts < 8_000; ts += 100 {
		k.tick(ts, interval)
	}
	// Quiet for 100 intervals, then steady traffic resumes.
	resume := int64(8_000 + 100*interval)
	if !k.tick(resume, interval) {
		t.Fatal("no cut when traffic resumed after a quiet gap")
	}
	// The second post-gap event re-anchors: its cut decision is again
	// driven by real stream progress, at most one interval later.
	cutAt := int64(0)
	for ts := resume + 100; ts < resume+3*interval; ts += 100 {
		if k.tick(ts, interval) {
			cutAt = ts
			break
		}
	}
	if cutAt == 0 {
		t.Fatal("clock failed to re-anchor after the quiet gap")
	}
}

// TestCheckpointClockOutlierIntegration runs the satellite-bug scenario
// through a real cluster: a mid-stream timestamp outlier must not
// suppress the remaining stream's checkpoint cuts.
func TestCheckpointClockOutlierIntegration(t *testing.T) {
	static := ringStatic(30)
	cfg := recoveryConfig(t, static)
	cfg.CheckpointInterval = 2 * time.Second // stream time

	stream := motifWorkload(7, 30, 400) // ~3s of stream time per step
	// One clock-skewed producer a day in the future, a quarter in.
	outlierAt := len(stream) / 4
	stream[outlierAt].TS += 24 * 3_600_000

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

	// The post-outlier stream spans ~900s of stream time at a 2s interval.
	// The old clock cut nothing there (stream time never reaches
	// outlier+interval); the clamped clock keeps cutting, so the total is
	// far above what the pre-outlier prefix alone could produce.
	prefixBound := uint64(outlierAt) // cuts cannot exceed events
	if n := counter(t, c, "cluster.checkpoints"); n <= prefixBound {
		t.Fatalf("cluster.checkpoints = %d: outlier suppressed post-outlier cuts (prefix bound %d)", n, prefixBound)
	}
}

// TestParallelApplyEquivalence is the apply loop's batching-independence
// property test: across seeds, batch sizes, worker counts, and GOMAXPROCS
// values, the batched cluster delivers exactly the notification multiset
// of a batch-of-one cluster (ApplyBatch unset) and converges to
// bit-identical recoverable state (CRC32C state fingerprints compared per
// replica).
func TestParallelApplyEquivalence(t *testing.T) {
	const users = 40
	static := ringStatic(users)

	type variant struct {
		batch, workers, maxprocs int
	}
	variants := []variant{
		{batch: 4, workers: 1, maxprocs: 1},
		{batch: 16, workers: 2, maxprocs: 1},
		{batch: 16, workers: 4, maxprocs: 2},
		{batch: 64, workers: 3, maxprocs: 4},
	}

	for _, seed := range []int64{3, 11} {
		stream := motifWorkload(seed, users, 300)
		// Batch-of-one reference run for this seed.
		seqCfg := recoveryConfig(t, static)
		seqCfg.Dynamic = dynstore.Options{Retention: time.Minute} // sweeps prune mid-stream
		seqNotes := collectNotes(&seqCfg)
		seq, err := New(seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		seq.Start()
		for _, e := range stream {
			if err := seq.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		seq.Stop()
		if len(seqNotes()) == 0 {
			t.Fatal("vacuous: sequential run delivered nothing")
		}

		for _, v := range variants {
			name := fmt.Sprintf("seed%d/batch%d_workers%d_procs%d", seed, v.batch, v.workers, v.maxprocs)
			t.Run(name, func(t *testing.T) {
				prev := runtime.GOMAXPROCS(v.maxprocs)
				defer runtime.GOMAXPROCS(prev)

				parCfg := recoveryConfig(t, static)
				parCfg.Dynamic = dynstore.Options{Retention: time.Minute}
				parCfg.ApplyBatch = v.batch
				parCfg.ApplyWorkers = v.workers
				parNotes := collectNotes(&parCfg)
				par, err := New(parCfg)
				if err != nil {
					t.Fatal(err)
				}
				par.Start()
				for _, e := range stream {
					if err := par.Publish(e); err != nil {
						t.Fatal(err)
					}
				}
				par.Stop()

				assertSameNotes(t, seqNotes(), parNotes())
				for pid := 0; pid < parCfg.Partitions; pid++ {
					for r := 0; r < parCfg.Replicas; r++ {
						pp, err := par.Replica(pid, r)
						if err != nil {
							t.Fatal(err)
						}
						sp, err := seq.Replica(pid, r)
						if err != nil {
							t.Fatal(err)
						}
						gotFP := fingerprint(pp)
						wantFP := fingerprint(sp)
						if gotFP != wantFP {
							t.Errorf("partition %d replica %d: batched fingerprint %08x != sequential %08x", pid, r, gotFP, wantFP)
						}
					}
				}
				if st := par.Stats(); st.ApplyBatches == 0 {
					t.Fatal("vacuous: batched run applied no batches")
				}
			})
		}
	}
}

// TestParallelApplyKillRestore reruns the fault-equivalence oracle with
// the worker pool on: kill/restore mid-stream under batched apply must
// still deliver the batch-of-one no-fault set exactly.
func TestParallelApplyKillRestore(t *testing.T) {
	static := ringStatic(50)
	stream := motifWorkload(91, 50, 400)

	oracleCfg := recoveryConfig(t, static)
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
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		recovered, _ := fault.Replica(pid, 1)
		reference, _ := oracle.Replica(pid, 1)
		if got, want := recovered.Engine().Dynamic().Stats(), reference.Engine().Dynamic().Stats(); got != want {
			t.Fatalf("partition %d recovered D stats %+v != oracle %+v", pid, got, want)
		}
	}
}

// batchHost is a one-replica host over a fake link, never started: the test
// plays the consumer, so it can look into the batch between applies. The
// timestamps the tests below use stay inside one checkpoint interval and one
// sweep interval, so applyBatch neither cuts nor prunes.
func batchHost(t *testing.T, max, workers int) (*replicaHost, *fakeLink, *replicaBatch) {
	t.Helper()
	link := newFakeLink(nil)
	h, _ := hostOverFake(t, link, func(cfg *Config) {
		cfg.Dynamic = dynstore.Options{Retention: time.Minute, MaxPerTarget: 64}
	})
	b := newReplicaBatch(max, workers)
	b.startWorkers(h.reps[0].p)
	t.Cleanup(b.stopWorkers)
	return h, link, b
}

// setBatch makes edges, at offsets from first on, the batch to apply.
func setBatch(b *replicaBatch, first uint64, edges []graph.Edge) {
	b.envs = b.envs[:0]
	for i, e := range edges {
		b.envs = append(b.envs, queue.Envelope[graph.Edge]{Offset: first + uint64(i), Msg: e})
	}
}

// TestApplyBatchReleasesCandidates is the regression for the scatter that
// copied: cands[i] was dropped on hand-off but outs[w][j] kept pointing at the
// same slice until a later batch happened to overwrite the entry — up to a
// batch's worth of stale candidate windows per worker, each pinning the chunk
// it was issued from. After applyBatch returns, no buffer of the batch may
// reference a candidate slice or hold a lease, whatever the sizes of the
// batches before.
func TestApplyBatchReleasesCandidates(t *testing.T) {
	h, link, b := batchHost(t, 16, 2)
	rep := h.reps[0]
	// Ring members b and b+1 act on one fresh target: user b-1 follows both.
	var stream []graph.Edge
	for i := 0; i < 120; i++ {
		ts := int64(10_000_000 + 2*i)
		target := graph.VertexID(100_000 + i)
		stream = append(stream,
			graph.Edge{Src: graph.VertexID(i % 20), Dst: target, Type: graph.Follow, TS: ts},
			graph.Edge{Src: graph.VertexID((i + 1) % 20), Dst: target, Type: graph.Follow, TS: ts + 1})
	}
	fanned := 0
	for lo, size := 0, 16; lo < len(stream); size = 3 + (size*7)%14 { // long batches, then short ones
		hi := min(lo+size, len(stream))
		setBatch(b, uint64(lo), stream[lo:hi])
		if !h.applyBatch(rep, b) {
			t.Fatal("offer refused")
		}
		for w, outs := range b.outs {
			for j, cands := range outs {
				if cands != nil {
					t.Fatalf("batch [%d,%d): shard %d still holds the %d candidates of its entry %d", lo, hi, w, len(cands), j)
				}
			}
		}
		for i, cands := range b.cands {
			if cands != nil {
				t.Fatalf("batch [%d,%d): the batch still holds the %d candidates of envelope %d", lo, hi, len(cands), i)
			}
		}
		for w, leases := range append(b.outLeases, b.leases) {
			for j, l := range leases {
				if l != (motif.Lease{}) {
					t.Fatalf("batch [%d,%d): lease buffer %d still holds the lease of its entry %d", lo, hi, w, j)
				}
			}
		}
		if len(b.edges[1]) > 0 {
			fanned++
		}
		lo = hi
	}
	if len(link.offers) < 100 || fanned < 5 {
		t.Fatalf("vacuous: %d offers, %d batches fanned out", len(link.offers), fanned)
	}
}

// TestApplyBatchNoCandidateZeroAlloc is the apply loop's allocation gate: a
// warm batch that completes no motif, fanned over two workers, allocates
// nothing — no goroutine, closure or WaitGroup per batch, on any goroutine
// (AllocsPerRun counts the process's mallocs, the resident worker's included).
func TestApplyBatchNoCandidateZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation gate: race instrumentation allocates; the non-race run enforces the budget")
	}
	h, link, b := batchHost(t, 16, 2)
	rep := h.reps[0]
	ts, offset := int64(10_000_000), uint64(0)
	edges := make([]graph.Edge, 16)
	fanned := 0
	apply := func() {
		for i := range edges {
			ts++
			// Actors nobody follows, on a fixed set of targets: D lists at
			// their cap, nothing to recommend.
			edges[i] = graph.Edge{Src: graph.VertexID(1000 + i%8), Dst: graph.VertexID(50 + i%8), Type: graph.Follow, TS: ts}
		}
		setBatch(b, offset, edges)
		offset += uint64(len(edges))
		if !h.applyBatch(rep, b) {
			t.Fatal("offer refused")
		}
		if len(b.edges[0]) > 0 && len(b.edges[1]) > 0 {
			fanned++
		}
	}
	for i := 0; i < 80; i++ {
		apply()
	}
	if perBatch := testing.AllocsPerRun(50, apply); perBatch != 0 {
		t.Fatalf("a no-candidate batch over two workers allocates %.2f; want 0", perBatch)
	}
	if len(link.offers) != 0 || fanned < 130 {
		t.Fatalf("vacuous: %d offers, %d batches fanned out", len(link.offers), fanned)
	}
}

// TestDetectWorkersLifecycle: a consumer's resident detect workers end with
// it. Kill, reprovision, scale-in and Shutdown each return the process to the
// goroutine count it had with that many fewer consumers — in the end, the
// count before the cluster existed — whatever the worker count.
func TestDetectWorkersLifecycle(t *testing.T) {
	// settled polls until the goroutine count is at most want: exiting
	// goroutines (a stopped consumer's, a finished fold's) take a moment.
	settled := func(want int) int {
		var n int
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if n = runtime.NumGoroutine(); n <= want {
				break
			}
		}
		return n
	}
	// steady polls until the count has not moved for 100 ms and returns it.
	steady := func() int {
		n, same := runtime.NumGoroutine(), 0
		for deadline := time.Now().Add(5 * time.Second); same < 20 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if now := runtime.NumGoroutine(); now == n {
				same++
			} else {
				n, same = now, 0
			}
		}
		return n
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			baseline := steady()
			cfg := recoveryConfig(t, ringStatic(40))
			cfg.CheckpointInterval = time.Second
			cfg.ApplyBatch, cfg.ApplyWorkers = 16, workers
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			stream := motifWorkload(17, 40, 300)
			publish := func(edges []graph.Edge) {
				for _, e := range edges {
					if err := c.Publish(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			publish(stream[:200])
			running := steady()

			// A killed replica takes its consumer, its writer and its
			// workers-1 detect goroutines with it; a reprovisioned one
			// brings as many back.
			if err := c.KillReplica(0, 1); err != nil {
				t.Fatal(err)
			}
			killed := settled(running - workers - 1)
			if killed > running-workers-1 {
				t.Fatalf("after a kill %d goroutines run, %d before: want %d fewer (consumer, writer, %d detect workers)",
					killed, running, workers+1, workers-1)
			}
			if err := c.ReprovisionReplica(0, 1); err != nil {
				t.Fatal(err)
			}
			if err := c.AwaitReplicaLive(0, 1, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			publish(stream[200:400])
			if got := settled(running); got > running {
				t.Fatalf("after a reprovision %d goroutines run, %d before the kill", got, running)
			}
			if err := c.DecommissionReplica(1, 1); err != nil {
				t.Fatal(err)
			}
			if got := settled(killed); got > killed {
				t.Fatalf("after a scale-in %d goroutines run; one replica fewer ran %d", got, killed)
			}
			publish(stream[400:])
			c.Shutdown()
			if got := settled(baseline); got > baseline {
				t.Fatalf("after Shutdown %d goroutines run, %d before the cluster existed", got, baseline)
			}
		})
	}
}
