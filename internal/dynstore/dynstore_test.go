package dynstore

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"motifstream/internal/arena"
	"motifstream/internal/graph"
	"motifstream/internal/racetest"
	"motifstream/internal/workload"
)

func edge(b, c graph.VertexID, ts int64) graph.Edge {
	return graph.Edge{Src: b, Dst: c, Type: graph.Follow, TS: ts}
}

// recent is every distinct in-window B of c, freshly allocated.
func recent(s *Store, c graph.VertexID, sinceMS int64) []InEdge {
	return s.RecentLimitInto(nil, c, sinceMS, 0)
}

func bsOf(ins []InEdge) []graph.VertexID {
	out := make([]graph.VertexID, len(ins))
	for i, in := range ins {
		out[i] = in.B
	}
	return out
}

func TestInsertAndRecent(t *testing.T) {
	s := New(Options{Retention: time.Minute})
	s.Insert(edge(1, 100, 1_000))
	s.Insert(edge(2, 100, 2_000))
	s.Insert(edge(3, 200, 3_000))

	got := recent(s, 100, 0)
	if len(got) != 2 {
		t.Fatalf("Recent(100) = %v, want 2 entries", got)
	}
	if got[0].B != 1 || got[1].B != 2 {
		t.Fatalf("Recent(100) order = %v, want chronological [1 2]", bsOf(got))
	}
	if got := recent(s, 200, 0); len(got) != 1 || got[0].B != 3 {
		t.Fatalf("Recent(200) = %v", got)
	}
	if got := recent(s, 999, 0); got != nil {
		t.Fatalf("Recent(unknown) = %v, want nil", got)
	}
}

func TestRecentSinceFilter(t *testing.T) {
	s := New(Options{})
	s.Insert(edge(1, 100, 1_000))
	s.Insert(edge(2, 100, 2_000))
	s.Insert(edge(3, 100, 3_000))
	got := recent(s, 100, 2_000)
	if len(got) != 2 || got[0].B != 2 || got[1].B != 3 {
		t.Fatalf("Recent(since=2000) = %v, want B's [2 3]", bsOf(got))
	}
}

func TestRecentDedupsKeepingLatest(t *testing.T) {
	s := New(Options{})
	s.Insert(edge(1, 100, 1_000))
	s.Insert(edge(2, 100, 2_000))
	s.Insert(edge(1, 100, 5_000)) // B=1 acts again, later
	got := recent(s, 100, 0)
	if len(got) != 2 {
		t.Fatalf("Recent = %v, want 2 distinct B's", got)
	}
	// B=1's entry must carry its most recent timestamp.
	for _, in := range got {
		if in.B == 1 && in.TS != 5_000 {
			t.Fatalf("B=1 TS = %d, want 5000 (most recent)", in.TS)
		}
	}
}

func TestRecentLimitKeepsFreshest(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 10; i++ {
		s.Insert(edge(graph.VertexID(i), 100, int64(1_000+i)))
	}
	got := s.RecentLimitInto(nil, 100, 0, 3)
	if len(got) != 3 {
		t.Fatalf("RecentLimit = %d entries, want 3", len(got))
	}
	// Freshest three are B=7,8,9, returned oldest-first.
	want := []graph.VertexID{7, 8, 9}
	for i, in := range got {
		if in.B != want[i] {
			t.Fatalf("RecentLimit = %v, want %v", bsOf(got), want)
		}
	}
	// Limit 0 means unlimited.
	if got := s.RecentLimitInto(nil, 100, 0, 0); len(got) != 10 {
		t.Fatalf("unlimited = %d entries, want 10", len(got))
	}
	// Limit larger than population.
	if got := s.RecentLimitInto(nil, 100, 0, 99); len(got) != 10 {
		t.Fatalf("big limit = %d entries, want 10", len(got))
	}
}

func TestInsertPrunesExpired(t *testing.T) {
	s := New(Options{Retention: time.Second})
	s.Insert(edge(1, 100, 1_000))
	s.Insert(edge(2, 100, 2_500))
	// At t=3000 the cutoff is 2000: edge@1000 is pruned, edge@2500 stays.
	n := s.Insert(edge(3, 100, 3_000))
	if n != 2 {
		t.Fatalf("retained %d in-edges, want 2 (edge@1000 pruned)", n)
	}
	got := recent(s, 100, 0)
	for _, in := range got {
		if in.B == 1 {
			t.Fatal("expired edge still visible")
		}
	}
}

func TestMaxPerTarget(t *testing.T) {
	s := New(Options{MaxPerTarget: 3})
	for i := 0; i < 10; i++ {
		s.Insert(edge(graph.VertexID(i), 100, int64(1_000+i)))
	}
	got := recent(s, 100, 0)
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3 (MaxPerTarget)", len(got))
	}
	// The oldest fell off; the newest three remain.
	want := []graph.VertexID{7, 8, 9}
	for i, in := range got {
		if in.B != want[i] {
			t.Fatalf("retained %v, want %v", bsOf(got), want)
		}
	}
}

func TestSweep(t *testing.T) {
	s := New(Options{Retention: time.Second})
	for i := 0; i < 5; i++ {
		s.Insert(edge(graph.VertexID(i), graph.VertexID(100+i), 1_000))
	}
	if st := s.Stats(); st.Targets != 5 || st.Edges != 5 {
		t.Fatalf("before sweep: %+v", st)
	}
	removed := s.Sweep(10_000) // everything is older than 1s now
	if removed != 5 {
		t.Fatalf("Sweep removed %d, want 5", removed)
	}
	st := s.Stats()
	if st.Targets != 0 || st.Edges != 0 {
		t.Fatalf("after sweep: %+v, want empty", st)
	}
	// Sweeping with no retention is a no-op.
	s2 := New(Options{})
	s2.Insert(edge(1, 2, 1))
	if removed := s2.Sweep(1 << 60); removed != 0 {
		t.Fatal("Sweep without retention should remove nothing")
	}
}

func TestSweepPartial(t *testing.T) {
	s := New(Options{Retention: time.Second})
	s.Insert(edge(1, 100, 1_000))
	s.Insert(edge(2, 100, 1_500)) // both inside retention at insert time
	removed := s.Sweep(2_300)     // cutoff 1300: first edge out, second in
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	got := recent(s, 100, 0)
	if len(got) != 1 || got[0].B != 2 {
		t.Fatalf("after partial sweep: %v", bsOf(got))
	}
}

// TestMemoryBytes pins MemoryBytes to the size of D's arrays — every
// shard's key table and the capacity of its edge arena — and holds a sweep
// that empties the store to the empty store's figure.
func TestMemoryBytes(t *testing.T) {
	s := New(Options{Retention: time.Second, Shards: 4})
	empty := s.MemoryBytes()
	arrays := func() uint64 {
		var b uint64
		for i := range s.shards {
			sh := &s.shards[i]
			b += uint64(len(sh.keys))*uint64(unsafe.Sizeof(graph.VertexID(0))) +
				uint64(len(sh.spans))*uint64(unsafe.Sizeof(arena.Block{})) +
				uint64(cap(sh.arena.Buf()))*uint64(unsafe.Sizeof(InEdge{}))
		}
		return b
	}
	for i := 0; i < 1_000; i++ {
		s.Insert(edge(graph.VertexID(i), graph.VertexID(i%300), int64(i)))
		if got, want := s.MemoryBytes(), arrays(); got != want {
			t.Fatalf("after %d inserts MemoryBytes = %d, the arrays hold %d", i+1, got, want)
		}
	}
	if removed := s.Sweep(1 << 40); removed != 1_000 {
		t.Fatalf("Sweep removed %d, want 1000", removed)
	}
	if got := s.MemoryBytes(); got != empty {
		t.Fatalf("emptied store holds %d bytes, the empty store %d", got, empty)
	}
}

// quietStream is the benchmark's quiet shape: 95 % content events, nearly
// every one onto a fresh target, 24 000 events a minute.
func quietStream(events int) []graph.Edge {
	return workload.GenEventStream(workload.StreamConfig{
		Users: 20_000, Events: events, Rate: 400,
		BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: time.Minute,
		ContentFraction: 0.95, ZipfS: 1.35, Seed: 7,
	})
}

// insertAllocs replays stream into ins with the engine's minute sweeps and a
// cut per 50 s, and returns the allocations per insert of its second half —
// the first warms the arrays and the dirty log up.
func insertAllocs(stream []graph.Edge, ins func(graph.Edge), sweep func(int64), capture func()) float64 {
	var before, after runtime.MemStats
	lastSweep, lastCut := stream[0].TS, stream[0].TS
	for i, e := range stream {
		if i == len(stream)/2 {
			runtime.ReadMemStats(&before)
		}
		ins(e)
		if e.TS-lastSweep >= 60_000 {
			sweep(e.TS)
			lastSweep = e.TS
		}
		if e.TS-lastCut >= 50_000 {
			capture()
			lastCut = e.TS
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(stream)-len(stream)/2)
}

// TestInsertAllocBudget gates D's insert path on the quiet shape: a warm
// store taking a fresh target per event, across sweeps and cuts, allocates
// at most 0.02 times an insert (the cuts' copies, mostly). The map-of-lists
// reference allocates a list per fresh target and grows its maps and each
// cut's fresh dirty set (≈ 1.4 an insert).
func TestInsertAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	stream := quietStream(4 * 24_000)
	s := New(Options{Retention: time.Minute, MaxPerTarget: 1024})
	got := insertAllocs(stream, func(e graph.Edge) { s.Insert(e) }, func(now int64) { s.Sweep(now) }, func() { s.CaptureDelta() })
	r := newRef(Options{Retention: time.Minute, MaxPerTarget: 1024})
	ref := insertAllocs(stream, func(e graph.Edge) { r.Insert(e) }, func(now int64) { r.Sweep(now) }, func() { r.CaptureDelta() })
	t.Logf("allocations per insert: %.4f (reference %.4f)", got, ref)
	if got > 0.02 {
		t.Errorf("%.4f allocations per insert, budget 0.02", got)
	}
	if ref <= 0.05 {
		t.Errorf("the reference allocates %.4f times an insert: the gate no longer separates the layouts", ref)
	}
}

// TestSweepZeroAlloc: a store at its working set rebuilds every shard it
// sweeps in place — the arena compacted, the table re-placed — so a cycle of
// a window's inserts and the sweep that empties the window before it
// allocates nothing. Two key sets alternate, so each sweep empties half the
// targets; cuts, which copy by design, run between the measured cycles.
func TestSweepZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const targets, cycles = 4_096, 4
	s := New(Options{Retention: time.Minute, MaxPerTarget: 1024, Shards: 8})
	cycle := func(k int) {
		base, ts := graph.VertexID(k%2*targets), int64(k)*60_000
		for j := range targets {
			for b := range 1 + j%4 {
				s.Insert(edge(graph.VertexID(b), base+graph.VertexID(j), ts+int64(j)))
			}
		}
		if removed := s.Sweep(ts + 60_000); k > 0 && removed == 0 {
			t.Fatalf("cycle %d: the sweep removed nothing", k)
		}
	}
	for k := range 4 {
		cycle(k)
		s.CaptureDelta()
	}
	var before, after runtime.MemStats
	var allocs uint64
	for k := 4; k < 4+cycles; k++ {
		runtime.ReadMemStats(&before)
		cycle(k)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		if st := s.Stats(); st.Targets != targets {
			t.Fatalf("cycle %d: %d targets after the sweep, want %d", k, st.Targets, targets)
		}
		s.CaptureDelta()
	}
	// The mean rounded down, as testing.AllocsPerRun takes it: the count is
	// the process's, and the runtime allocates now and then on its own (a
	// scavenger timer), where a store's allocation repeats every cycle.
	if allocs/cycles != 0 {
		t.Errorf("%d allocations over %d cycles of %d inserts and a sweep, want 0", allocs, cycles, targets*5/2)
	}
}

// TestLoadSnapshotAllocBudget gates the install of a restored run: its
// allocations grow with the shard count — each shard's table and arena —
// not with the targets it carries. The reference allocates a list per
// target.
func TestLoadSnapshotAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	run := make(Targets, 2_000)
	for i := range run {
		run[i] = entry(graph.VertexID(i), []InEdge{{B: 1, TS: int64(i)}, {B: 2, TS: int64(i)}})
	}
	for _, shards := range []int{4, 64} {
		s := New(Options{Retention: time.Hour, Shards: shards})
		s.Insert(edge(9, 9, 9)) // something to drop
		allocs := testing.AllocsPerRun(5, func() { s.LoadSnapshot(run) })
		if st := s.Stats(); st.Targets != len(run) || st.Edges != 2*int64(len(run)) {
			t.Fatalf("installed %+v", st)
		}
		if budget := float64(3 * shards); allocs > budget {
			t.Errorf("%d shards: installing %d targets allocates %.0f times, budget %.0f", shards, len(run), allocs, budget)
		}
	}
}

func TestShardRounding(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 100} {
		s := New(Options{Shards: n})
		// Power-of-two mask: mask+1 must be a power of two >= max(n,1).
		p := s.mask + 1
		if p&(p-1) != 0 {
			t.Fatalf("Shards=%d: %d shards is not a power of two", n, p)
		}
		if n > 0 && int(p) < n {
			t.Fatalf("Shards=%d rounded down to %d", n, p)
		}
	}
}

// Property: for random insert sequences, Recent agrees with a brute-force
// reference on the set of distinct in-window B's and their latest
// timestamps.
func TestRecentAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		retention := time.Duration(1+r.Intn(10)) * time.Second
		s := New(Options{Retention: retention})
		type rec struct {
			b  graph.VertexID
			ts int64
		}
		var history []rec
		now := int64(0)
		const target = graph.VertexID(7)
		for i := 0; i < 300; i++ {
			now += int64(r.Intn(500))
			b := graph.VertexID(r.Intn(10))
			s.Insert(edge(b, target, now))
			history = append(history, rec{b, now})
		}
		since := now - retention.Milliseconds()
		// Reference: latest in-window TS per B. Entries pruned by Insert
		// are exactly those below the retention cutoff relative to the
		// max seen time, so the window filter matches.
		wantTS := map[graph.VertexID]int64{}
		for _, h := range history {
			if h.ts >= since && h.ts > wantTS[h.b] {
				wantTS[h.b] = h.ts
			}
		}
		got := recent(s, target, since)
		if len(got) != len(wantTS) {
			t.Fatalf("trial %d: %d distinct B's, want %d", trial, len(got), len(wantTS))
		}
		for _, in := range got {
			if wantTS[in.B] != in.TS {
				t.Fatalf("trial %d: B=%d TS=%d, want %d", trial, in.B, in.TS, wantTS[in.B])
			}
		}
	}
}

// TestConcurrentInsertAndQuery runs writers, a reader and a sweeper at
// once (the sweeper compacts shards while writers relocate blocks, both
// through the store's one scratch) and then requires the table and the
// arenas to agree: a snapshot holds exactly what Stats counts.
func TestConcurrentInsertAndQuery(t *testing.T) {
	s := New(Options{Retention: time.Minute, Shards: 8})
	var wg sync.WaitGroup
	const writers = 4
	const perWriter = 2_000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Insert(edge(graph.VertexID(w), graph.VertexID(i%350), int64(i)*50))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1_000; i++ {
			recent(s, graph.VertexID(i%50), 0)
			s.Stats()
			s.Sweep(int64(i) * 100)
		}
	}()
	wg.Wait()
	<-done
	st := s.Stats()
	if st.Edges == 0 {
		t.Fatal("no edges retained after concurrent inserts")
	}
	var snap bytes.Buffer
	snap.Write(s.AppendSnapshot(nil))
	run, err := decodeSnapshot(snap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, e := range run {
		edges += len(e.Val)
	}
	if len(run) != st.Targets || int64(edges) != st.Edges {
		t.Fatalf("snapshot holds %d targets and %d edges, Stats %+v", len(run), edges, st)
	}
}
