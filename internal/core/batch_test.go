package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/racetest"
	"motifstream/internal/statstore"
)

// batchWorkload produces a stream with motif completions, repeats, and
// enough stream-time advance to trigger sweeps.
func batchWorkload(seed int64, n int) []graph.Edge {
	r := rand.New(rand.NewSource(seed))
	t0 := int64(1_000_000)
	out := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, graph.Edge{
			Src:  graph.VertexID(1 + r.Intn(4)),
			Dst:  graph.VertexID(10 + r.Intn(4)),
			Type: graph.Follow,
			TS:   t0 + int64(i)*500, // sweeps (1m default) fire mid-stream
		})
	}
	return out
}

// replicaApply runs edges through e the way a replica's apply loop does
// (internal/cluster/parallel.go) with a batch bound of max: a batch ends
// early at the first edge where a sweep is due, DetectBatch runs over the
// batch, then MaybeSweep is offered every edge in order. out[i] receives
// edge i's candidates.
func replicaApply(e *Engine, max int, edges []graph.Edge, out [][]motif.Candidate) {
	leasedApply(e, max, edges, out, nil)
}

// leasedApply is replicaApply that also stores out[i]'s lease in leases[i]
// when leases is non-nil.
func leasedApply(e *Engine, max int, edges []graph.Edge, out [][]motif.Candidate, leases []motif.Lease) {
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && hi-lo < max && !e.SweepDue(edges[hi-1].TS) {
			hi++
		}
		if leases != nil {
			e.DetectLeased(edges[lo:hi], out[lo:hi], leases[lo:hi])
		} else {
			e.DetectBatch(edges[lo:hi], out[lo:hi])
		}
		for _, edge := range edges[lo:hi] {
			e.MaybeSweep(edge.TS)
		}
		lo = hi
	}
}

// TestDetectBatchEquivalence: the apply loop's DetectBatch + MaybeSweep
// sequence produces the same per-event candidates, counters, D state, and
// sweep clock as per-event Apply, for every batch bound. Bound 0 stands for
// Engine.ApplyBatch over the whole stream (the benchmark module's entry
// point to the same sequence).
func TestDetectBatchEquivalence(t *testing.T) {
	stream := batchWorkload(5, 400)
	for _, batch := range []int{0, 1, 3, 16, 400} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			seq := testEngine(t, fig1Static(), nil)
			var seqCands [][]motif.Candidate
			for _, e := range stream {
				seqCands = append(seqCands, seq.Apply(e))
			}

			bat := testEngine(t, fig1Static(), nil)
			got := make([][]motif.Candidate, len(stream))
			if batch == 0 {
				bat.ApplyBatch(stream, got)
			} else {
				replicaApply(bat, batch, stream, got)
			}

			for i := range stream {
				if !reflect.DeepEqual(seqCands[i], got[i]) {
					t.Fatalf("event %d: batched candidates %+v != sequential %+v", i, got[i], seqCands[i])
				}
			}
			ss, bs := seq.Stats(), bat.Stats()
			if ss.Events != bs.Events || ss.Candidates != bs.Candidates {
				t.Fatalf("counters diverged: seq %d/%d, batch %d/%d", ss.Events, ss.Candidates, bs.Events, bs.Candidates)
			}
			if ss.Dynamic != bs.Dynamic {
				t.Fatalf("D stats diverged: seq %+v, batch %+v", ss.Dynamic, bs.Dynamic)
			}
			if seq.SweepClock() != bat.SweepClock() {
				t.Fatalf("sweep clock diverged: seq %d, batch %d", seq.SweepClock(), bat.SweepClock())
			}
		})
	}
}

// TestLatencyMetricSplit pins the satellite bugfix: engine.query_latency
// observes only the program-execution span, and the new
// engine.ingest_latency keeps the old insert-inclusive total visible.
// Both histograms must observe once per event.
func TestLatencyMetricSplit(t *testing.T) {
	e := testEngine(t, fig1Static(), nil)
	const n = 50
	for i := 0; i < n; i++ {
		e.Apply(graph.Edge{Src: 1, Dst: graph.VertexID(100 + i), Type: graph.Follow, TS: 1_000_000 + int64(i)})
	}
	st := e.Stats()
	if st.QueryLatency.Count != n {
		t.Fatalf("query_latency observed %d times, want %d", st.QueryLatency.Count, n)
	}
	if st.IngestLatency.Count != n {
		t.Fatalf("ingest_latency observed %d times, want %d", st.IngestLatency.Count, n)
	}
	// Ingest covers a superset span of query, so its mean cannot be
	// smaller (histogram bucketing grants equality).
	if st.IngestLatency.Mean < st.QueryLatency.Mean {
		t.Fatalf("ingest mean %v < query mean %v: insert span missing from ingest_latency",
			st.IngestLatency.Mean, st.QueryLatency.Mean)
	}
}

// newAllocEngine builds an engine whose workload completes no motifs (S
// is empty) over a bounded set of targets, the steady-state regime where
// the hot path must not allocate.
func newAllocEngine(tb testing.TB) *Engine {
	tb.Helper()
	b := &statstore.Builder{}
	e, err := NewEngine(Config{
		Static: statstore.New(b.Build(nil)),
		// A short retention keeps the per-target lists bounded so Insert's
		// append reuses capacity in steady state.
		Dynamic: dynstore.New(dynstore.Options{Retention: time.Minute, MaxPerTarget: 64}),
		Programs: []motif.Program{
			motif.NewDiamond(motif.DiamondConfig{K: 3, Window: 30 * time.Second, MaxFanout: 64}),
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestDetectBatchAllocBudget is the allocation-regression gate of the
// candidate-generation path, and since NewDiamond returns a plan the <=1
// alloc/event gate of the plan executor (a group of one): once warm, the
// no-candidate hot path — the DetectBatch + MaybeSweep sequence replicas
// run — must average under one heap allocation per event. The previous per-event path allocated the
// recent-actor slice, the list headers, and the intersection output on
// every edge (~5+ allocs/event); the budget pins the >=90%% reduction.
func TestDetectBatchAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation gate: race instrumentation allocates; the non-race run enforces the budget")
	}
	e := newAllocEngine(t)
	const batch = 64
	edges := make([]graph.Edge, batch)
	out := make([][]motif.Candidate, batch)
	ts := int64(1_000_000)
	fill := func() {
		for i := range edges {
			ts += 20
			edges[i] = graph.Edge{
				Src:  graph.VertexID(1 + (i % 8)),
				Dst:  graph.VertexID(50 + (i % 4)),
				Type: graph.Follow,
				TS:   ts,
			}
		}
	}
	// Warm up: grow D lists, scratch buffers, and pools to steady state.
	for i := 0; i < 20; i++ {
		fill()
		replicaApply(e, batch, edges, out)
	}
	perBatch := testing.AllocsPerRun(20, func() {
		fill()
		replicaApply(e, batch, edges, out)
	})
	if perEvent := perBatch / batch; perEvent > 1.0 {
		t.Fatalf("batched no-candidate path allocates %.2f/event (%.1f/batch); budget is 1/event", perEvent, perBatch)
	}
}

// thresholds returns twenty diamonds, k = 2..21, of one share key: the share
// group of the emit path's gates.
func thresholds() []motif.Program {
	var progs []motif.Program
	for k := 2; k <= 21; k++ {
		progs = append(progs, motif.NewDiamond(motif.DiamondConfig{
			Name: fmt.Sprintf("k%d", k), K: k, Window: 30 * time.Second, MaxFanout: 64,
		}))
	}
	return progs
}

// chunkBudget is what DetectBatch's emit path may allocate for a batch whose
// leases it drops: the chunks its candidates and their Via elements fill
// (motif's candChunk and viaChunk), and one.
func chunkBudget(cands, viaElems int) int {
	const candChunk, viaChunk = 256, 2048
	return (cands+candChunk-1)/candChunk + (viaElems+viaChunk-1)/viaChunk + 1
}

// emitBudget runs progs over the emit path's world — users 102..108, user
// 100+j following B's 1..j, so once all eight B's have acted on a target user
// 100+j has j supports — on batches of 64 events where every B acts on every
// target. It returns what a warm batch emits, its candidates and their
// distinct Via elements, and the allocations a batch costs two ways: through
// DetectLeased with each batch's windows released once it is read, as the
// cluster's candidate path releases them, and through DetectBatch, which
// hands no leases out.
func emitBudget(t *testing.T, progs []motif.Program) (cands, viaElems int, leased, batched float64) {
	t.Helper()
	var static []graph.Edge
	for j := 2; j <= 8; j++ {
		for b := 1; b <= j; b++ {
			static = append(static, graph.Edge{Src: graph.VertexID(100 + j), Dst: graph.VertexID(b)})
		}
	}
	b := &statstore.Builder{}
	e, err := NewEngine(Config{
		Static:   statstore.New(b.Build(static)),
		Dynamic:  dynstore.New(dynstore.Options{Retention: time.Minute, MaxPerTarget: 64}),
		Programs: progs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Sharing(); s.Groups != 1 || s.GroupedPrograms != 20 {
		t.Fatalf("expected one 20-member group: %+v", s)
	}
	const batch = 64
	edges := make([]graph.Edge, batch)
	out := make([][]motif.Candidate, batch)
	ts := int64(1_000_000)
	fill := func() {
		for i := range edges {
			ts += 20
			edges[i] = graph.Edge{
				Src:  graph.VertexID(1 + (i % 8)),
				Dst:  graph.VertexID(50 + (i/8)%4), // every B acts on every target
				Type: graph.Follow,
				TS:   ts,
			}
		}
	}
	leases := make([]motif.Lease, batch)
	apply := func() {
		for _, l := range leases {
			l.Release()
		}
		fill()
		leasedApply(e, batch, edges, out, leases)
	}
	for i := 0; i < 20; i++ {
		apply()
	}
	for _, evCands := range out {
		cands += len(evCands)
		vias := map[*graph.VertexID]bool{}
		for _, c := range evCands {
			if !vias[&c.Via[0]] {
				vias[&c.Via[0]] = true
				viaElems += len(c.Via)
			}
		}
	}
	leased = testing.AllocsPerRun(20, apply)
	batched = testing.AllocsPerRun(20, func() {
		fill()
		replicaApply(e, batch, edges, out)
	})
	return cands, viaElems, leased, batched
}

// TestDetectBatchAllocBudgetEmitting is the allocation gate of the emit
// path: a share group of twenty thresholds (k = 2..21) on events where
// several of them emit (28 candidates for 7 users, from 7 members, the
// members recommending one user sharing its Via window: 35 elements an event).
// Candidates and Vias are windows of chunks, assembled in registration order
// where they are issued. Through DetectLeased a chunk whose windows are all
// released is issued again, so a warm batch allocates nothing. DetectBatch
// pays for the chunks it fills — 10 allocations here for 1792 candidates,
// where an array pair per group-event and an assembly copy per event were 192.
func TestDetectBatchAllocBudgetEmitting(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation gate: race instrumentation allocates; the non-race run enforces the budget")
	}
	cands, viaElems, leased, batched := emitBudget(t, thresholds())
	if cands != 64*28 || viaElems != 64*35 {
		t.Fatalf("warm batch emitted %d candidates over %d Via elements, want 28 and 35 per event", cands, viaElems)
	}
	if leased != 0 {
		t.Fatalf("leased emitting path allocates %.1f/batch for %d candidates with its windows released; want 0", leased, cands)
	}
	if budget := chunkBudget(cands, viaElems); batched > float64(budget) {
		t.Fatalf("DetectBatch's emitting path allocates %.1f/batch for %d candidates; the chunk budget is %d", batched, cands, budget)
	}
}

// TestDetectBatchAllocBudgetTriangle registers the triangle closure beside
// the twenty thresholds on the same events: each event also recommends its
// actor to the seven other B's in the window, the seven sharing one Via
// window [target]. The triangle's candidates ride the same chunks, so a warm
// leased batch allocates nothing, and DetectBatch stays within the chunk
// budget — 10 allocations for 2240 candidates, where a slice per emitting
// event and a Via per candidate made it 522.
func TestDetectBatchAllocBudgetTriangle(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation gate: race instrumentation allocates; the non-race run enforces the budget")
	}
	cands, viaElems, leased, batched := emitBudget(t, append(thresholds(), motif.NewTriangleClosure(30*time.Second)))
	if cands != 64*35 {
		t.Fatalf("warm batch emitted %d candidates, want 35 per event", cands)
	}
	if leased != 0 {
		t.Fatalf("leased emitting path allocates %.1f/batch for %d candidates with its windows released; want 0", leased, cands)
	}
	if budget := chunkBudget(cands, viaElems); batched > float64(budget) {
		t.Fatalf("DetectBatch's emitting path allocates %.1f/batch for %d candidates; the chunk budget is %d", batched, cands, budget)
	}
}

// BenchmarkEngineApply measures per-event Apply; its alloc report is the
// baseline the batched benchmark is compared against.
func BenchmarkEngineApply(b *testing.B) {
	e := newAllocEngine(b)
	b.ReportAllocs()
	ts := int64(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += 20
		e.Apply(graph.Edge{Src: graph.VertexID(1 + i%8), Dst: graph.VertexID(50 + i%4), Type: graph.Follow, TS: ts})
	}
}

// BenchmarkEngineDetectBatch measures the replicas' hot path: scratch
// acquisition and counter updates amortized over the batch, sweeps
// sequenced after it. Run in bench-smoke; allocs/op is the number to watch.
func BenchmarkEngineDetectBatch(b *testing.B) {
	e := newAllocEngine(b)
	const batch = 64
	edges := make([]graph.Edge, batch)
	out := make([][]motif.Candidate, batch)
	ts := int64(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range edges {
			ts += 20
			edges[j] = graph.Edge{Src: graph.VertexID(1 + j%8), Dst: graph.VertexID(50 + j%4), Type: graph.Follow, TS: ts}
		}
		replicaApply(e, batch, edges, out)
	}
}
