// Command magicrecs runs the full simulated recommendation cluster — the
// production system the paper describes, nicknamed "Magic Recs" — on a
// synthetic or recorded workload, printing live throughput, latency, and
// funnel statistics.
//
// Usage:
//
//	magicrecs -scenario medium
//	magicrecs -static data/static.edges -stream data/stream.edges
//
// Multi-process deployment (see docs/OPERATIONS.md):
//
//	magicrecs -listen :7400 -checkpointdir /data/ckpt -workerprocs 2
//	magicrecs -join hub:7400 -owned 0/0,1/0 -checkpointdir /data/ckpt
//
// Flags control the paper's tunables: k, the window τ, partition and
// replica counts, influencer cap, and queue-delay modeling.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"motifstream"
	"motifstream/internal/graph"
	"motifstream/internal/stream"
	"motifstream/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("magicrecs: ")
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable entry point: flag parsing and validation write to
// errOut and return an exit code instead of killing the process.
func run(args []string, errOut io.Writer) int {
	fs := flag.NewFlagSet("magicrecs", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scenario   = fs.String("scenario", "medium", "workload preset: small, medium, large (ignored when -static/-stream set)")
		staticPath = fs.String("static", "", "recorded static edge file (from loadgen)")
		streamPath = fs.String("stream", "", "recorded stream edge file (from loadgen)")
		partitions = fs.Int("partitions", 20, "number of partitions (paper: 20)")
		replicas   = fs.Int("replicas", 1, "replicas per partition")
		k          = fs.Int("k", 3, "support threshold k (paper production: 3)")
		window     = fs.Duration("window", 10*time.Minute, "freshness window tau")
		maxInfl    = fs.Int("maxinfluencers", 200, "influencer cap per user (0 = unlimited)")
		maxFanout  = fs.Int("maxfanout", 64, "recent-actor cap per event (-1 = unlimited)")
		motifsPath = fs.String("motifs", "", "file of motif DSL declarations run as standing queries on every replica alongside the primary diamond (see docs/QUERIES.md)")
		queueMed   = fs.Duration("queuemedian", 7*time.Second, "simulated queue-delay median (0 disables)")
		queueP99   = fs.Duration("queuep99", 15*time.Second, "simulated queue-delay p99")
		progress   = fs.Int("progress", 50_000, "print progress every N events (0 disables)")
		ckptDir    = fs.String("checkpointdir", "", "directory for durable replica checkpoints (enables crash recovery; empty disables)")
		ckptEvery  = fs.Duration("checkpointinterval", time.Minute, "stream-time interval between replica checkpoints")
		compactN   = fs.Int("compactevery", 8, "delta checkpoint segments per chain before the background compactor folds a new base")
		logDir     = fs.String("logdir", "", "directory for the durable firehose log (WAL) whole-cluster restarts replay (requires -checkpointdir; empty selects <checkpointdir>/firehose)")
		restarts   = fs.Int("restarts", 0, "restart the whole cluster N times mid-stream (Shutdown + Reopen over the same dirs; requires -checkpointdir)")
		mirrorN    = fs.Int("mirrorbases", 0, "replicate each compacted base checkpoint to N peer replica directories (base replication; 0 disables)")
		reprovN    = fs.Int("reprovision", 0, "N times mid-stream, kill replica 1 of every partition and reprovision it onto a fresh node (requires -checkpointdir and -replicas >= 2)")
		scaleN     = fs.Int("scale-events", 0, "perform N live scale events mid-stream, alternating AddReplica and DecommissionReplica on every partition (requires -checkpointdir)")
		healAfter  = fs.Duration("healafter", 0, "auto-reprovision replicas dead longer than this (auto-healer; 0 disables)")
		auditOn    = fs.Bool("audit", false, "record a CRC32C state fingerprint at every checkpoint cut and cross-verify replicas after the run (requires -checkpointdir)")
		batchN     = fs.Int("applybatch", 0, "replica apply loop batch bound: drain up to N envelopes per apply batch (0/1 = one envelope per batch)")
		workersN   = fs.Int("applyworkers", 0, "worker goroutines for candidate generation per batch, sharded by target (0/1 = consumer goroutine; needs -applybatch > 1)")

		listen      = fs.String("listen", "", "run as a networked hub: bind this TCP address, own the durable log and delivery tier, and serve every replica slot to worker processes (requires -checkpointdir)")
		join        = fs.String("join", "", "run as a networked worker: dial the hub at this address and consume the slots in -owned (requires -owned and -checkpointdir; forbids -logdir)")
		ownedStr    = fs.String("owned", "", "comma-separated partition/replica slots this worker owns, e.g. 0/0,1/0 (requires -join)")
		workerProcs = fs.Int("workerprocs", 0, "with -listen: spawn N worker OS processes (re-exec of this binary with -join), splitting all replica slots among them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(errOut, "magicrecs: %s\n", fmt.Sprintf(format, a...))
		fs.Usage()
		return 2
	}

	if *restarts > 0 && *ckptDir == "" {
		return fail("-restarts requires -checkpointdir")
	}
	if (*reprovN > 0 || *scaleN > 0 || *healAfter > 0) && *ckptDir == "" {
		return fail("-reprovision, -scale-events, and -healafter require -checkpointdir")
	}
	if *reprovN > 0 && *replicas < 2 {
		return fail("-reprovision requires -replicas >= 2 (the last alive replica cannot be replaced)")
	}
	if *auditOn && *ckptDir == "" {
		return fail("-audit requires -checkpointdir")
	}
	workersSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "applyworkers" {
			workersSet = true
		}
	})
	if workersSet && *batchN <= 1 {
		return fail("-applyworkers requires -applybatch > 1 (a batch of one envelope has nothing to fan out)")
	}

	networked := *listen != "" || *join != ""
	if *listen != "" && *join != "" {
		return fail("-listen and -join are mutually exclusive (a process is a hub or a worker, not both)")
	}
	if *listen != "" && *ckptDir == "" {
		return fail("-listen requires -checkpointdir (the hub owns the durable firehose log)")
	}
	if *join != "" && *ownedStr == "" {
		return fail("-join requires -owned (the partition/replica slots this worker consumes)")
	}
	if *join != "" && *ckptDir == "" {
		return fail("-join requires -checkpointdir (workers cut their own durable checkpoints)")
	}
	if *join != "" && *logDir != "" {
		return fail("-join forbids -logdir (the durable log lives in the hub process)")
	}
	if *ownedStr != "" && *join == "" {
		return fail("-owned requires -join")
	}
	if *workerProcs > 0 && *listen == "" {
		return fail("-workerprocs requires -listen (only a hub spawns workers)")
	}
	if networked && (*restarts > 0 || *reprovN > 0 || *scaleN > 0 || *healAfter > 0) {
		return fail("-restarts, -reprovision, -scale-events, and -healafter are single-process lifecycle drivers; they are not available with -listen/-join")
	}
	owned, err := parseOwned(*ownedStr, *partitions, *replicas)
	if err != nil {
		return fail("%v", err)
	}

	var motifSrc string
	if *motifsPath != "" {
		data, err := os.ReadFile(*motifsPath)
		if err != nil {
			return fail("-motifs: %v", err)
		}
		motifSrc = string(data)
		if _, err := motifstream.CompileMotif(motifSrc); err != nil {
			return fail("-motifs %s: %v", *motifsPath, err)
		}
	}

	static, events, err := loadWorkload(*scenario, *staticPath, *streamPath)
	if err != nil {
		log.Fatal(err)
	}

	opts := motifstream.ClusterOptions{
		Partitions:             *partitions,
		Replicas:               *replicas,
		K:                      *k,
		Window:                 *window,
		MaxInfluencers:         *maxInfl,
		MaxFanout:              *maxFanout,
		QueueDelayMedian:       *queueMed,
		QueueDelayP99:          *queueP99,
		Seed:                   1,
		CheckpointDir:          *ckptDir,
		CheckpointInterval:     *ckptEvery,
		CheckpointCompactEvery: *compactN,
		LogDir:                 *logDir,
		MirrorBases:            *mirrorN,
		HealAfter:              *healAfter,
		ApplyBatch:             *batchN,
		ApplyWorkers:           *workersN,
		Audit:                  *auditOn,
		Listen:                 *listen,
		Join:                   *join,
		OwnedReplicas:          owned,
	}
	if motifSrc != "" {
		if err := opts.RegisterMotifs(motifSrc); err != nil {
			return fail("-motifs %s: %v", *motifsPath, err)
		}
	}

	if *join != "" {
		// Worker process: consume the owned slots until the hub ends the
		// stream, then exit through the full durable stop. The workload
		// flags must match the hub's — the static follow graph is what the
		// worker's partitions detect against.
		clu, err := motifstream.NewCluster(static, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("worker: joined %s owning %s (%d static edges)\n", *join, *ownedStr, len(static))
		if err := clu.Wait(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("worker: stream ended, durable stop complete\n")
		return 0
	}

	fmt.Printf("workload: %d static follow edges, %d stream events\n", len(static), len(events))
	clu, err := motifstream.NewCluster(static, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Hub with -workerprocs: split every replica slot round-robin across N
	// re-exec'd worker processes, then drive the workload as usual. The
	// children inherit the workload and shape flags so each builds the
	// same static graph and detection programs.
	var workers []*exec.Cmd
	if *listen != "" && *workerProcs > 0 {
		addr := clu.ListenAddr()
		fmt.Printf("hub: listening on %s, spawning %d worker processes\n", addr, *workerProcs)
		groups := splitSlots(*partitions, *replicas, *workerProcs)
		for wi, slots := range groups {
			if len(slots) == 0 {
				continue
			}
			cmd, err := spawnWorker(addr, slots, fs)
			if err != nil {
				log.Fatalf("spawn worker %d: %v", wi, err)
			}
			workers = append(workers, cmd)
		}
	} else if *listen != "" {
		fmt.Printf("hub: listening on %s, waiting for external workers (-join)\n", clu.ListenAddr())
	}
	if *listen != "" {
		// Publishing into a hub with absent workers would stream into the
		// log with nobody consuming, then shut the listener before slow
		// joiners attach; wait until every slot's worker is caught up.
		for pid := 0; pid < *partitions; pid++ {
			for r := 0; r < *replicas; r++ {
				if err := clu.AwaitReplicaLive(pid, r, 5*time.Minute); err != nil {
					log.Fatalf("waiting for the worker owning slot %d/%d: %v", pid, r, err)
				}
			}
		}
		fmt.Printf("hub: all %d replica slots live\n", *partitions**replicas)
	}

	start := time.Now()
	var delivered, ingested uint64

	// With -restarts N the stream is split into N+1 runs; between runs the
	// whole cluster shuts down and a brand-new one reopens over the same
	// durable log and checkpoint directories — the cross-process restart
	// path, driven end to end.
	boundaries := map[int]bool{}
	for r := 1; r <= *restarts; r++ {
		boundaries[r*len(events)/(*restarts+1)] = true
	}
	// Elastic placement events are spread the same way: -reprovision
	// replaces replica 1 of every partition mid-stream (node death +
	// replacement), -scale-events alternates a live scale-out with a
	// scale-in of the replica it added.
	reprovAt := map[int]bool{}
	for r := 1; r <= *reprovN; r++ {
		reprovAt[r*len(events)/(*reprovN+1)] = true
	}
	scaleAt := map[int]int{}
	for s := 1; s <= *scaleN; s++ {
		scaleAt[s*len(events)/(*scaleN+1)] = s
	}
	scaledIdx := -1

	for i, e := range events {
		if reprovAt[i] {
			for pid := 0; pid < *partitions; pid++ {
				if err := clu.KillReplica(pid, 1); err != nil {
					log.Fatalf("kill %d/1: %v", pid, err)
				}
				if err := clu.ReprovisionReplica(pid, 1); err != nil {
					log.Fatalf("reprovision %d/1: %v", pid, err)
				}
			}
			fmt.Printf("  --- event %d: replaced the node of replica 1 in all %d partitions ---\n", i, *partitions)
		}
		if s, ok := scaleAt[i]; ok {
			if s%2 == 1 {
				for pid := 0; pid < *partitions; pid++ {
					idx, err := clu.AddReplica(pid)
					if err != nil {
						log.Fatalf("add replica to %d: %v", pid, err)
					}
					scaledIdx = idx
				}
				fmt.Printf("  --- event %d: scaled out to replica %d in all partitions ---\n", i, scaledIdx)
			} else if scaledIdx >= 0 {
				for pid := 0; pid < *partitions; pid++ {
					if err := clu.DecommissionReplica(pid, scaledIdx); err != nil {
						log.Fatalf("decommission %d/%d: %v", pid, scaledIdx, err)
					}
				}
				fmt.Printf("  --- event %d: decommissioned replica %d in all partitions ---\n", i, scaledIdx)
			}
		}
		if boundaries[i] {
			// Shut down before reading stats: the drain delivers whatever
			// is still in flight in the firehose and delivery queues, and
			// those pushes belong in this run's totals.
			if err := clu.Shutdown(); err != nil {
				log.Fatalf("shutdown at event %d: %v", i, err)
			}
			s := clu.Stats()
			delivered += s.Delivered
			ingested += s.Events
			fmt.Printf("  --- restart at event %d: shut down (%d pushed this run), reopening from %s ---\n",
				i, s.Delivered, *ckptDir)
			clu, err = motifstream.ReopenCluster(static, opts)
			if err != nil {
				log.Fatalf("reopen: %v", err)
			}
		}
		if err := clu.Publish(e); err != nil {
			log.Fatal(err)
		}
		if *progress > 0 && (i+1)%*progress == 0 {
			s := clu.Stats()
			fmt.Printf("  %8d events published | %8d pushed | wall %v\n",
				i+1, delivered+s.Delivered, time.Since(start).Round(time.Millisecond))
		}
	}
	if err := clu.Shutdown(); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	wall := time.Since(start)

	// A networked shutdown ends every worker's stream; collect the
	// children before reporting so their final flushes are on disk.
	for wi, cmd := range workers {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker %d: %v", wi, err)
		}
	}

	// Counters reset at each restart boundary; fold the earlier runs back
	// in (latency quantiles and the funnel describe the final run).
	s := clu.Stats()
	s.Delivered += delivered
	s.Events += ingested
	fmt.Printf("\n=== run complete ===\n")
	fmt.Printf("events:      %d in %v (%.0f events/s; paper design target 10^4/s)\n",
		s.Events, wall.Round(time.Millisecond), float64(s.Events)/wall.Seconds())
	fmt.Printf("pushes:      %d\n", s.Delivered)
	fmt.Printf("latency:     p50=%v p99=%v end-to-end (paper: 7s / 15s)\n",
		s.LatencyP50.Round(100*time.Millisecond), s.LatencyP99.Round(100*time.Millisecond))
	fmt.Printf("funnel:      raw=%d -> dup-%d asleep-%d fatigue-%d -> delivered=%d (%.3f%%)\n",
		s.Funnel.Raw, s.Funnel.DroppedDuplicate, s.Funnel.DroppedAsleep,
		s.Funnel.DroppedFatigue, s.Funnel.Delivered, 100*s.Funnel.DeliveryRate())
	if *ckptDir != "" {
		fmt.Printf("recovery:    %d checkpoint segments (%d compactions) in %s; cut pause p99=%v; firehose log truncated below offset %d\n",
			s.Checkpoints, s.Compactions, *ckptDir, s.CheckpointPauseP99, s.LogTruncatedBelow)
		fmt.Printf("delivery:    %d pipeline state cuts (dedup LRU + fatigue budgets), %d restored at restarts\n",
			s.DeliveryStateCuts, s.DeliveryStateRestores)
		fmt.Printf("placement:   %d reprovisions (%d auto-healed), %d base mirrors, %d pool restores, %d scale-outs, %d scale-ins, %d fsyncs saved\n",
			s.Reprovisions, s.Healed, s.BaseMirrors, s.BasePoolRestores, s.ScaleOuts, s.ScaleIns, s.FsyncsSaved)
	}
	if *batchN > 1 {
		fmt.Printf("batching:    %d apply batches (mean %.1f / p99 %.0f envelopes per batch, bound %d, %d workers)\n",
			s.ApplyBatches, s.ApplyBatchMean, s.ApplyBatchP99, *batchN, *workersN)
	}
	if *auditOn {
		// Cross-verify the recorded per-cut fingerprints of every
		// partition's replica group: any two replicas that recorded the
		// same firehose offset must have held bit-identical state.
		var records, compared, mismatches int
		for pid := 0; pid < *partitions; pid++ {
			rep, err := clu.VerifyFingerprints(pid)
			if err != nil {
				log.Fatalf("verify fingerprints %d: %v", pid, err)
			}
			records += rep.Records
			compared += rep.Compared
			mismatches += len(rep.Mismatches)
			for _, m := range rep.Mismatches {
				fmt.Printf("  AUDIT MISMATCH partition %d offset %d: %v\n", pid, m.Offset, m.Sums)
			}
		}
		fmt.Printf("audit:       %d fingerprints recorded, %d offsets cross-compared, %d mismatches (%d flagged by the pipeline)\n",
			records, compared, mismatches, s.AuditMismatches)
		if mismatches > 0 || s.AuditMismatches > 0 {
			log.Fatal("audit: replica state diverged — fingerprint mismatch")
		}
	}

	// The broker fan-out read path: globally hottest recommendations.
	if top, err := clu.TopItems(5); err == nil && len(top) > 0 {
		fmt.Println("top recommended items (broker fan-out/gather):")
		for _, ic := range top {
			fmt.Printf("  item %-10d recommended %d times\n", ic.Item, ic.Count)
		}
	}
	return 0
}

// parseOwned parses "0/0,1/0" into (partition, replica) pairs and
// validates them against the deployment shape.
func parseOwned(s string, partitions, replicas int) ([][2]int, error) {
	if s == "" {
		return nil, nil
	}
	var owned [][2]int
	for _, part := range strings.Split(s, ",") {
		pr := strings.Split(strings.TrimSpace(part), "/")
		if len(pr) != 2 {
			return nil, fmt.Errorf("-owned: %q is not partition/replica", part)
		}
		pid, err1 := strconv.Atoi(pr[0])
		r, err2 := strconv.Atoi(pr[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("-owned: %q is not partition/replica", part)
		}
		if pid < 0 || pid >= partitions || r < 0 || r >= replicas {
			return nil, fmt.Errorf("-owned: slot %d/%d outside %d partitions x %d replicas", pid, r, partitions, replicas)
		}
		owned = append(owned, [2]int{pid, r})
	}
	return owned, nil
}

// splitSlots deals every (partition, replica) slot round-robin across n
// worker processes.
func splitSlots(partitions, replicas, n int) [][][2]int {
	groups := make([][][2]int, n)
	i := 0
	for pid := 0; pid < partitions; pid++ {
		for r := 0; r < replicas; r++ {
			groups[i%n] = append(groups[i%n], [2]int{pid, r})
			i++
		}
	}
	return groups
}

// workerFlags is the set of flags a spawned worker inherits from the hub
// verbatim: the workload (for the static graph) and every knob that
// shapes per-replica detection or checkpointing.
var workerFlags = map[string]bool{
	"scenario": true, "static": true, "stream": true,
	"partitions": true, "replicas": true, "k": true, "window": true,
	"maxinfluencers": true, "maxfanout": true, "motifs": true,
	"queuemedian": true, "queuep99": true,
	"checkpointdir": true, "checkpointinterval": true, "compactevery": true,
	"mirrorbases": true, "applybatch": true, "applyworkers": true, "audit": true,
}

// spawnWorker re-execs this binary as a worker owning the given slots.
func spawnWorker(hubAddr string, slots [][2]int, fs *flag.FlagSet) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	parts := make([]string, len(slots))
	for i, s := range slots {
		parts[i] = fmt.Sprintf("%d/%d", s[0], s[1])
	}
	args := []string{"-join", hubAddr, "-owned", strings.Join(parts, ","), "-progress", "0"}
	fs.Visit(func(f *flag.Flag) {
		if workerFlags[f.Name] {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.Command(self, args...)
	// MAGICRECS_BE_MAIN routes a re-exec'd *test* binary into main()
	// instead of the test runner; the real binary ignores it.
	cmd.Env = append(os.Environ(), "MAGICRECS_BE_MAIN=1")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// loadWorkload returns the static and dynamic edge sets, either from
// recorded files or from a named scenario preset.
func loadWorkload(scenario, staticPath, streamPath string) (static, events []graph.Edge, err error) {
	if staticPath != "" || streamPath != "" {
		if staticPath == "" || streamPath == "" {
			return nil, nil, fmt.Errorf("-static and -stream must be given together")
		}
		if static, err = readEdges(staticPath); err != nil {
			return nil, nil, err
		}
		if events, err = readEdges(streamPath); err != nil {
			return nil, nil, err
		}
		return static, events, nil
	}
	sc, ok := workload.ScenarioByName(scenario)
	if !ok {
		return nil, nil, fmt.Errorf("unknown scenario %q (want small, medium, or large)", scenario)
	}
	return workload.GenFollowGraph(sc.Graph), workload.GenEventStream(sc.Stream), nil
}

func readEdges(path string) ([]graph.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stream.ReadEdges(f)
}
