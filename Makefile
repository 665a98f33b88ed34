GO ?= go

.PHONY: check build vet test test-race examples test-allocs test-crashmatrix test-delivery test-elasticity test-audit test-parallel test-transport test-planner test-codec test-benchmark loc test-times soak-flake soak soak-net bench bench-smoke fuzz fuzz-smoke

# check is the CI gate: formatting, static analysis, the full test suite
# under the race detector — once — and only what that run does not cover:
# the allocation gates (they skip under -race), the codec's allocation and
# format gates, the nested benchmark module's own vet + tests, short fuzz
# smoke runs of the durability codecs, and every example program run end to
# end. test-crashmatrix, test-delivery, test-elasticity, test-audit,
# test-transport and the -race halves of test-parallel and test-planner are
# -run subsets of test-race, kept as named targets for the quick loop and
# deliberately not prerequisites here: internal/cluster under the race
# detector is the long pole.
check: fmt-check vet test-race test-allocs test-codec test-benchmark fuzz-smoke examples

fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# examples runs all six programs under examples/ (about 30 s on 2 vCPUs,
# cluster and recovery the longest), not just compiles them: a program that
# panics or exits non-zero fails the target. examples/recovery is the one
# path through the public facade's recovery on the firehose log a cluster
# keeps under its CheckpointDir by default.
examples:
	@set -e; for d in examples/*/; do echo "== go run ./$$d"; $(GO) run ./$$d; done

# test-allocs runs the ingest and candidate paths' allocation gates — a
# durable firehose publish through the WAL with the cluster's record codec
# between rotations (TestWALAppendZeroAlloc, 0), the same with the 4×2
# deployment's eight readers taking their batches and waking on it
# (TestFirehoseReadersZeroAlloc, 0), and a reader's batch read from the
# in-memory tail (TestReaderTailReadZeroAlloc, 0); the kernel's; S's Followers
# and Follows lookups (0); D's insert on the quiet shape (≤ 0.02 an insert
# across sweeps and cuts), its sweep-and-refill cycle at the working set
# (TestSweepZeroAlloc, 0) and its restore (per shard, not per target); the
# block arena both keep their lists in (TestArenaZeroAlloc: a compaction in
# place and a move into its room, 0);
# the engine's no-candidate budgets (≤ 1 an event for one plan, 0 a batch
# for a multi-motif share group) and its emitting batches, the triangle
# beside a group too: 0 through DetectLeased with their windows released
# (recycled chunks), the chunk budget through DetectBatch; the candidate log's
# commits (to users at depth 0, at its working set with runs coming and going
# TestCommitWorkingSetZeroAlloc 0, to 4 096 new users ≤ 0.05 a candidate);
# the checkpoint writer's encode (TestSegmentAppendZeroAlloc: a sealed delta
# and a sealed base appended into a buffer with room, 0);
# the apply loop's no-candidate batch over two workers (0); the funnel's
# offer (a live duplicate 0, a delivery ≤ 0.01: chunks of 256 Notifications
# and their Vias); the wire's: a candidate connection's decode (≤ 0.02 a
# candidate, TestDecodeCandBatchAllocBudget), an envelope batch encoded and
# framed (TestEnvBatchFrameZeroAlloc, 0) and a frame read
# (TestReadMsgZeroAlloc, 0); the delivery loop's simulated queue-delay draws
# (TestHopDelayZeroAlloc, 0) — without the race detector: instrumentation
# changes allocation counts, so under -race they skip. Every *ZeroAlloc gate
# is selected by the regex's first term.
test-allocs:
	$(GO) test -run 'ZeroAlloc|TestInsertAllocBudget|TestLoadSnapshotAllocBudget|TestDetectBatchAllocBudget|TestCommitAllocBudget|TestCommitNewUsersAllocBudget|TestOfferAllocBudget|TestDecodeCandBatchAllocBudget' ./internal/graph ./internal/statstore ./internal/arena ./internal/dynstore ./internal/core ./internal/partition ./internal/cluster ./internal/delivery ./internal/transport

# test-crashmatrix runs just the fault-injection matrix (kill / restore /
# whole-cluster restart at every pipeline stage, oracle-asserted, once per
# transport: in process and over loopback TCP; plus the restart
# delivery-state scenarios) plus the restore planner's table and purity
# tests under the race detector — the quick loop while working on the
# durability subsystem.
test-crashmatrix:
	$(GO) test -race -run 'TestCrashMatrix|TestReopen|TestRestart|TestPlanRestore' ./internal/cluster

# test-delivery runs the push-pipeline suite — funnel policies, the
# dedup LRU, and the durable state codec — under the race detector: the
# quick loop for the delivery tier.
test-delivery:
	$(GO) test -race ./internal/delivery

# test-elasticity runs the elastic placement suite (node replacement,
# base replication with the mirror tests — torn pushes, foreign and
# orphaned mirrors, the truncation floor a mirror holds —, live
# scale-out/in, auto-healer, placement table, and the restore planner
# every placement goes live through) under the race detector — the quick
# loop for the placement subsystem.
test-elasticity:
	$(GO) test -race -run 'TestElastic|TestAddReplica|TestReprovision|TestHealer|TestReopenRebuilds|TestReopenAllBases|TestReopenRecoversDespite|TestMirror|TestForeignMirrors|TestPlanRestore|TestCrashMatrix/(reprovision|scale)' ./internal/cluster ./internal/placement

# test-audit runs the state-determinism layer under the race detector:
# the audit log codec and verifier, the fingerprint's two properties
# (different states differ; every compose path agrees), and the former
# scale-out flake as an always-on regression.
test-audit:
	$(GO) test -race ./internal/audit
	$(GO) test -race -run 'TestFingerprintDistinguishesStates|TestComposePathsFingerprintEqual' ./internal/partition
	$(GO) test -race -run 'TestFlakeHuntScaleOutKillOriginal|TestMirrorOnlySurvivor' ./internal/cluster

# test-parallel runs the replica apply loop's suite under the race
# detector: the cluster-free oracle, batching-independence properties
# (delivered multiset + state fingerprints across batch sizes, worker
# counts, and GOMAXPROCS), the checkpoint-clock clamp, engine batch
# equivalence, and (test-allocs) the allocation-budget gates — the quick
# loop for hot-path work.
test-parallel: test-allocs
	$(GO) test -race -run 'TestApplyLoop|TestParallelApply|TestCkptClock|TestCheckpointClockOutlier|TestDetectBatch|TestLatencyMetricSplit' ./internal/cluster ./internal/core

# test-transport runs the networked tier under the race detector: the
# wire codec, its version-5 golden frames and the fault tests in
# internal/transport, with the read-path tests (TestRemoteRead*: a round
# trip on the feed connection, a read in flight across a drop, a read behind
# a full, undrained feed), plus the loopback multi-process cluster suite (hub
# + socket-attached workers, reads through the hub's broker, connection
# drops, worker crash/restart, full restart), the replica-host contract
# tests over the fake link, and the crash matrix's TCP legs — the quick loop
# for transport work.
test-transport:
	$(GO) test -race ./internal/transport
	$(GO) test -race -run 'TestNetworked|TestReplicaHost|TestCrashMatrix/.*/tcp' ./internal/cluster

# test-planner runs the motif planner and shared-execution suite under
# the race detector: the DSL (lexer/parser/plan shapes/EXPLAIN goldens), the
# constructors' pinned listings and share keys, the plan executor, which
# reads a plan's shape, against its test-only references (the hand-written
# diamond, fresh-follow and triangle closure it replaced — the triangle's
# differential over twenty seeded worlds among them — an interpreter of the
# shape's op listing, the brute-force oracle) with the differential fuzz target's
# seeds, the engine's plan-only contract (a nil entry or a non-plan is an
# error) and its shared-trie differential, and the cluster-level
# multi-query differential (shared vs ungrouped multiset, fingerprint
# equality across batch/worker configs, multi-motif kill/restore) — the
# quick loop for planner and multi-query work. The multi-motif allocation
# gates (the no-candidate path and the emit path's, the triangle's
# included) are among test-allocs.
test-planner: test-allocs
	$(GO) test -race ./internal/motifdsl ./internal/motif
	$(GO) test -race -run 'TestEngineShared|TestEngineRejectsNonPlans|TestMultiQuery' ./internal/core ./internal/cluster

# test-codec runs the checkpoint codec's gates: the allocation budgets of
# segment decode, delta capture and the candidate log (commit to users at
# depth, commit to 4 096 new users — TestCommitNewUsersAllocBudget, ≤ 0.05 a
# candidate; both in test-allocs too — and read) with the log's exact bytes
# per retained candidate
# (without race, like test-planner's:
# instrumentation changes allocation counts), the golden files (the WAL's
# two segment versions and the wire's frames among them) with the exhaustive
# prefix / bit-flip properties beside each fuzz target, the cursor's own
# tests, the segment merge law (its table, the differential fuzz target's
# seeds, the rejection of keys out of order) and
# one iteration of the compactor's fold (base + 8 deltas from disk) — the
# quick loop for codec work.
test-codec:
	$(GO) test -run 'AllocBudget|Footprint' ./internal/partition ./internal/dynstore
	$(GO) test -run 'Golden|PrefixesAndBitFlips|Cursor|Arena|TestRun' ./internal/codecutil ./internal/partition ./internal/dynstore ./internal/delivery ./internal/placement ./internal/queue ./internal/transport ./internal/cluster ./internal/stream
	$(GO) test -run 'SegmentMerge|KeysOutOfOrder|DuplicateTarget' ./internal/partition ./internal/dynstore
	$(GO) test -run=NONE -bench BenchmarkCheckpointCompose -benchtime=1x -count=1 ./internal/partition

# test-benchmark vets and tests the nested motifstream/benchmark module
# (its own go.mod, so ./... above does not reach it): an API deletion
# that breaks the benchmark driver's build fails here, in the repo's own
# gate.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# loc prints non-test Go lines and how many of them are code (not blank, not
# a // comment): one row per internal/* package, one for the root package,
# one per cmd/*, and a total row over every non-test Go file outside
# benchmark/ (examples/ included) — the yardstick the simplification items on
# the ROADMAP are held to. Its last thirteen rows are counted from the source:
# the yardstick's option counts — the fields of cluster.Config, of the
# facade's ClusterOptions, Options and BatchOptions, of
# placement.HealerOptions, of core.Config, and of the layer options the
# cluster passes down, partition.Config, dynstore.Options, delivery.Options
# and queue.WALOptions (a line declaring several names counts each) — the
# output surfaces' fields, cluster.Stats and the facade's ClusterStats (every
# other count is read from the metrics registry by name), and the flags
# cmd/magicrecs registers on its flag set.
LOC_AWK = { sub(/^[ \t]+/, "") } !/^$$/ && !/^\/\// { code++ } END { printf "%-22s %6d lines %6d code\n", pkg, NR, code }
FIELDS_AWK = $$0 == "type " name " struct {" { on = 1; next } on && /^}/ { on = 0 } \
	on && match($$0, /^\t[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[ \t]/) { s = substr($$0, 1, RLENGTH); n += gsub(/,/, "", s) + 1 } \
	END { printf "%-22s %6d fields\n", label, n }
FLAGS_AWK = { n += gsub(/fs\.[A-Z][A-Za-z0-9]*\("/, "") } END { printf "%-22s %6d flags\n", "magicrecs flags", n }
loc:
	@for d in internal/*/ cmd/*/; do \
		find $$d -name '*.go' ! -name '*_test.go' | xargs cat | awk -v pkg=$$d '$(LOC_AWK)'; \
	done
	@find . -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | awk -v pkg='(root package)' '$(LOC_AWK)'
	@find . -path ./benchmark -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | \
		xargs cat | awk -v pkg='total (no benchmark/)' '$(LOC_AWK)'
	@awk -v name=Config -v label=cluster.Config '$(FIELDS_AWK)' internal/cluster/cluster.go
	@awk -v name=ClusterOptions -v label=ClusterOptions '$(FIELDS_AWK)' cluster.go
	@awk -v name=Options -v label=Options '$(FIELDS_AWK)' system.go
	@awk -v name=BatchOptions -v label=BatchOptions '$(FIELDS_AWK)' offline.go
	@awk -v name=HealerOptions -v label=HealerOptions '$(FIELDS_AWK)' internal/placement/healer.go
	@awk -v name=Config -v label=core.Config '$(FIELDS_AWK)' internal/core/engine.go
	@awk -v name=Config -v label=partition.Config '$(FIELDS_AWK)' internal/partition/partition.go
	@awk -v name=Options -v label=dynstore.Options '$(FIELDS_AWK)' internal/dynstore/dynstore.go
	@awk -v name=Options -v label=delivery.Options '$(FIELDS_AWK)' internal/delivery/delivery.go
	@awk -v name='WALOptions[T any]' -v label=queue.WALOptions '$(FIELDS_AWK)' internal/queue/wal.go
	@awk -v name=Stats -v label=cluster.Stats '$(FIELDS_AWK)' internal/cluster/cluster.go
	@awk -v name=ClusterStats -v label=ClusterStats '$(FIELDS_AWK)' cluster.go
	@find cmd/magicrecs -name '*.go' ! -name '*_test.go' | xargs cat | awk '$(FLAGS_AWK)'

# test-times runs one package's tests once (PKG, default ./internal/cluster)
# and prints every test's and subtest's wall time from go test -json, slowest
# first, then the package's own; a failed test is marked FAIL. It is the
# per-test table a change to the suite's running time is reported with.
PKG ?= ./internal/cluster
TIMES_AWK = /"Action":"(pass|fail)"/ && match($$0, /"Elapsed":[0-9.]+/) { \
		e = substr($$0, RSTART + 10, RLENGTH - 10); \
		t = match($$0, /"Test":"[^"]*"/) ? substr($$0, RSTART + 8, RLENGTH - 9) : "(package total)"; \
		printf "%9.2fs  %s%s\n", e, t, ($$0 ~ /"Action":"fail"/) ? "  FAIL" : "" }
test-times:
	@$(GO) test -json -count=1 $(PKG) | awk '$(TIMES_AWK)' | sort -rn

# soak-flake is the nightly soak of the once-flaky scale-out scenario
# (the zombie-cut bug): 200 consecutive runs, any recurrence fails.
soak-flake:
	$(GO) test -run 'TestFlakeHuntScaleOutKillOriginal' -count=200 -timeout 60m ./internal/cluster

# bench runs every per-package micro-benchmark briefly (regression smoke,
# not a measurement run). -count=1 defeats the test cache (a cached "ok"
# would mask a freshly introduced benchmark panic), and the per-package
# loop stops at the first failing package instead of letting one
# package's noise bury another's failure in a long ./... transcript.
bench:
	@set -e; for pkg in $$($(GO) list ./...); do \
		$(GO) test -run=NONE -bench . -benchtime=1x -count=1 $$pkg; \
	done

# bench-smoke runs the durability benchmarks, the threshold kernel's
# strategy table, the candidate log's commit path, D's insert path, the
# wire's candidate decode and envelope write and the stream generator at
# the quiet shape and the large preset once each, so the perf paths
# benchmark/ measures (and the generator its set-up waits on) keep
# compiling and running in CI without a full measurement run.
bench-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		$(GO) test -run=NONE -bench 'Checkpoint|Recovery|Snapshot|Reprovision|DetectBatch|ThresholdIntersect|Commit|Insert|CandBatch|EnvBatch|GenEventStream' -benchtime=1x -count=1 $$pkg; \
	done

# soak drives the long-haul churn harness (cmd/soak): sustained ingest
# under kills/restores, reprovisions, scale-out/in, and whole-process
# restarts, then proves oracle delivered-set equivalence, a clean
# fingerprint audit, bounded log growth, and flat goroutine/heap usage.
soak:
	$(GO) run ./cmd/soak -dur 2m

# soak-net is the networked-fault variant: the same harness drives a hub
# plus socket-attached workers and the faults are random connection
# drops mid-stream and worker crashes (Abort + restart over the same
# chains), with the identical oracle/audit/resource verification.
soak-net:
	$(GO) run ./cmd/soak -net -dur 2m

# fuzz-smoke is the one list of fuzz targets, FUZZTIME each. The CI budget
# of 10s per target keeps the decoders, the WAL record framing, the
# delivery-state codec, the hub's delivery.state file, the
# recorded-stream file, the manifest and the placement table, the transport wire protocol and its candidate
# decode's round trip through one connection's arenas, the motif DSL compiler,
# the restore planner, the segment merge, the candidate log, the plan
# executor, the threshold kernel's strategies, the packed S build, the block
# arena under both its policies, the flat D store and the stream generator
# (each against its references) continuously fuzzed without
# stalling checks. The exhaustive
# prefix / bit-flip properties run first: what the fuzzers sample, they
# enumerate for one valid input per format. -fuzzminimizetime 1x bounds the
# minimization of each new input to one run: unbounded, it took most of the
# budget of half the targets, which then sampled an order of magnitude fewer
# inputs.
FUZZTIME ?= 10s
FUZZFLAGS = -run=NONE -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
fuzz-smoke:
	$(GO) test -run 'PrefixesAndBitFlips' ./internal/partition ./internal/dynstore ./internal/delivery ./internal/transport
	$(GO) test $(FUZZFLAGS) -fuzz FuzzSnapshotDecode ./internal/dynstore
	$(GO) test $(FUZZFLAGS) -fuzz FuzzStoreMatchesReference ./internal/dynstore
	$(GO) test $(FUZZFLAGS) -fuzz FuzzWALReadRecord ./internal/queue
	$(GO) test $(FUZZFLAGS) -fuzz FuzzDeliveryStateReadFrom ./internal/delivery
	$(GO) test $(FUZZFLAGS) -fuzz FuzzDeliveryStateFile ./internal/cluster
	$(GO) test $(FUZZFLAGS) -fuzz FuzzManifestFile ./internal/cluster
	$(GO) test $(FUZZFLAGS) -fuzz FuzzPlacementTable ./internal/placement
	$(GO) test $(FUZZFLAGS) -fuzz FuzzAuditRecords ./internal/audit
	$(GO) test $(FUZZFLAGS) -fuzz FuzzReadEdges ./internal/stream
	$(GO) test $(FUZZFLAGS) -fuzz FuzzTransportFrame ./internal/transport
	$(GO) test $(FUZZFLAGS) -fuzz FuzzCandBatchRoundTrip ./internal/transport
	$(GO) test $(FUZZFLAGS) -fuzz FuzzCompile ./internal/motifdsl
	$(GO) test $(FUZZFLAGS) -fuzz FuzzPlanRestore ./internal/cluster
	$(GO) test $(FUZZFLAGS) -fuzz FuzzSegmentMerge ./internal/partition
	$(GO) test $(FUZZFLAGS) -fuzz FuzzCandidateLog ./internal/partition
	$(GO) test $(FUZZFLAGS) -fuzz FuzzPlanMatchesReference ./internal/motif
	$(GO) test $(FUZZFLAGS) -fuzz FuzzThresholdIntersect ./internal/graph
	$(GO) test $(FUZZFLAGS) -fuzz FuzzStaticBuild ./internal/statstore
	$(GO) test $(FUZZFLAGS) -fuzz FuzzArena ./internal/arena
	$(GO) test $(FUZZFLAGS) -fuzz FuzzGenEventStream ./internal/workload

# fuzz gives each target of that list a longer budget (manual runs).
fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=30s
