package statstore

import (
	"sync"
	"testing"

	"motifstream/internal/graph"
)

func follow(a, b graph.VertexID, ts int64) graph.Edge {
	return graph.Edge{Src: a, Dst: b, Type: graph.Follow, TS: ts}
}

func TestBuildBasic(t *testing.T) {
	b := &Builder{}
	snap := b.Build([]graph.Edge{
		follow(1, 10, 0), follow(2, 10, 0), follow(3, 10, 0),
		follow(2, 20, 0),
	})
	if got := snap.Followers(10); !sameIDs(got, []graph.VertexID{1, 2, 3}) {
		t.Fatalf("Followers(10) = %v", got)
	}
	if got := snap.Followers(20); !sameIDs(got, []graph.VertexID{2}) {
		t.Fatalf("Followers(20) = %v", got)
	}
	if snap.Followers(99) != nil {
		t.Fatal("unknown B should have nil followers")
	}
	if snap.followers.Len() != 2 {
		t.Fatalf("influencers = %d, want 2", snap.followers.Len())
	}
	if snap.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", snap.NumEdges())
	}
	if snap.MemoryBytes() == 0 {
		t.Fatal("MemoryBytes should be positive")
	}
}

func TestBuildDedups(t *testing.T) {
	b := &Builder{}
	snap := b.Build([]graph.Edge{
		follow(1, 10, 0), follow(1, 10, 5), follow(1, 10, 9),
	})
	if got := snap.Followers(10); len(got) != 1 {
		t.Fatalf("duplicate edges not deduped: %v", got)
	}
	if snap.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", snap.NumEdges())
	}
}

func TestBuildPartitionFilter(t *testing.T) {
	b := &Builder{
		Keep: func(a graph.VertexID) bool { return a%2 == 0 },
	}
	snap := b.Build([]graph.Edge{
		follow(1, 10, 0), follow(2, 10, 0), follow(3, 10, 0), follow(4, 10, 0),
	})
	if got := snap.Followers(10); !sameIDs(got, []graph.VertexID{2, 4}) {
		t.Fatalf("partition-filtered Followers(10) = %v, want [2 4]", got)
	}
}

// TestBuildFollowsKeepsPartitionIgnoresCap: Build's already-follows index
// holds every follow of the A's Keep accepts, the influencer cap aside.
func TestBuildFollowsKeepsPartitionIgnoresCap(t *testing.T) {
	b := &Builder{
		Keep:           func(a graph.VertexID) bool { return a%2 == 0 },
		MaxInfluencers: 1,
	}
	snap := b.Build([]graph.Edge{
		follow(2, 30, 0), follow(2, 10, 0), follow(2, 10, 5), follow(2, 20, 0),
		follow(3, 10, 0),
	})
	for _, c := range []graph.VertexID{10, 20, 30} {
		if !snap.Follows(2, c) {
			t.Errorf("Follows(2, %d) = false, want true: the cap does not apply", c)
		}
	}
	if snap.Follows(3, 10) {
		t.Error("Follows(3, 10) = true, want false: A=3 is another partition's")
	}
	if snap.Follows(2, 40) || snap.Follows(10, 2) {
		t.Error("Follows reports an edge that is not there")
	}
}

// TestInfluencerCapIgnoresEdgeOrder: with every score tied, the cap keeps
// the lowest B's whatever order the edges arrive in.
func TestInfluencerCapIgnoresEdgeOrder(t *testing.T) {
	b := &Builder{MaxInfluencers: 2}
	for _, edges := range [][]graph.Edge{
		{follow(1, 10, 0), follow(1, 20, 0), follow(1, 30, 0)},
		{follow(1, 30, 0), follow(1, 20, 0), follow(1, 10, 0)},
		{follow(1, 20, 0), follow(1, 30, 0), follow(1, 10, 0)},
	} {
		snap := b.Build(edges)
		if !sameIDs(snap.Followers(10), []graph.VertexID{1}) || !sameIDs(snap.Followers(20), []graph.VertexID{1}) || snap.Followers(30) != nil {
			t.Fatalf("edges %v: S keeps 10:%v 20:%v 30:%v, want B=10 and B=20", edges,
				snap.Followers(10), snap.Followers(20), snap.Followers(30))
		}
	}
}

// TestInfluencerCapCountsDistinctBs: a follow given twice is one influencer,
// ranked by its best copy.
func TestInfluencerCapCountsDistinctBs(t *testing.T) {
	b := &Builder{MaxInfluencers: 2}
	snap := b.Build([]graph.Edge{follow(1, 10, 0), follow(1, 10, 0), follow(1, 20, 0)})
	if !sameIDs(snap.Followers(10), []graph.VertexID{1}) || !sameIDs(snap.Followers(20), []graph.VertexID{1}) {
		t.Fatalf("S keeps 10:%v 20:%v, want both: a duplicate is not a second influencer", snap.Followers(10), snap.Followers(20))
	}
	// B=10's later copy outranks B=20; its earlier one alone would not.
	b.MaxInfluencers = 1
	snap = b.Build([]graph.Edge{follow(1, 10, 100), follow(1, 20, 200), follow(1, 10, 300)})
	if !sameIDs(snap.Followers(10), []graph.VertexID{1}) || snap.Followers(20) != nil {
		t.Fatalf("S keeps 10:%v 20:%v, want B=10 by its best copy", snap.Followers(10), snap.Followers(20))
	}
}

// TestSnapshotLookupsZeroAlloc holds the two lookups the detection path makes
// per candidate list and per candidate to zero allocations.
func TestSnapshotLookupsZeroAlloc(t *testing.T) {
	snap := (&Builder{}).Build(benchFollowEdges(1_000, 20))
	var n int
	if allocs := testing.AllocsPerRun(100, func() {
		for v := graph.VertexID(0); v < 1_100; v++ {
			n += len(snap.Followers(v))
			if snap.Follows(v, v+1) {
				n++
			}
		}
	}); allocs != 0 {
		t.Fatalf("Followers + Follows allocate %.1f times a run, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("vacuous: every lookup missed")
	}
}

func TestInfluencerCapKeepsHighestScored(t *testing.T) {
	// A=1 follows 4 B's with increasing timestamps; cap 2 with the
	// default recency score keeps B=30,40.
	b := &Builder{MaxInfluencers: 2}
	snap := b.Build([]graph.Edge{
		follow(1, 10, 100), follow(1, 20, 200), follow(1, 30, 300), follow(1, 40, 400),
	})
	if snap.Followers(10) != nil || snap.Followers(20) != nil {
		t.Fatal("low-scored influencers should be dropped")
	}
	if !sameIDs(snap.Followers(30), []graph.VertexID{1}) || !sameIDs(snap.Followers(40), []graph.VertexID{1}) {
		t.Fatal("high-scored influencers missing")
	}
	if snap.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after capping", snap.NumEdges())
	}
}

func TestInfluencerCapCustomScore(t *testing.T) {
	// Score by inverse B id: lowest B ids win.
	b := &Builder{
		MaxInfluencers: 1,
		Score:          func(e graph.Edge) float64 { return -float64(e.Dst) },
	}
	snap := b.Build([]graph.Edge{
		follow(1, 10, 0), follow(1, 20, 0),
	})
	if !sameIDs(snap.Followers(10), []graph.VertexID{1}) {
		t.Fatal("custom score not honored")
	}
	if snap.Followers(20) != nil {
		t.Fatal("capped influencer retained")
	}
}

func TestInfluencerCapPerA(t *testing.T) {
	// The cap applies per A, not globally.
	b := &Builder{MaxInfluencers: 1}
	snap := b.Build([]graph.Edge{
		follow(1, 10, 100), follow(1, 20, 200),
		follow(2, 10, 100), follow(2, 30, 50),
	})
	// A=1 keeps B=20 (newer); A=2 keeps B=10 (newer).
	if !sameIDs(snap.Followers(20), []graph.VertexID{1}) {
		t.Fatalf("A=1's kept influencer wrong: %v", snap.Followers(20))
	}
	if !sameIDs(snap.Followers(10), []graph.VertexID{2}) {
		t.Fatalf("A=2's kept influencer wrong: %v", snap.Followers(10))
	}
}

func TestFollowersSorted(t *testing.T) {
	b := &Builder{}
	snap := b.Build([]graph.Edge{
		follow(5, 10, 0), follow(3, 10, 0), follow(9, 10, 0), follow(1, 10, 0),
	})
	if got := snap.Followers(10); !got.IsSorted() {
		t.Fatalf("Followers not sorted: %v", got)
	}
}

func TestStoreReloadAtomic(t *testing.T) {
	b := &Builder{}
	s1 := b.Build([]graph.Edge{follow(1, 10, 0)})
	s2 := b.Build([]graph.Edge{follow(2, 10, 0), follow(2, 20, 0)})
	// The two builds are told apart by what they serve.
	st := New(s1)
	if st.Snapshot() != s1 || !sameIDs(st.Followers(10), []graph.VertexID{1}) || st.Followers(20) != nil {
		t.Fatal("initial snapshot not served")
	}
	st.Reload(s2)
	if st.Snapshot() != s2 || !sameIDs(st.Followers(10), []graph.VertexID{2}) || !sameIDs(st.Followers(20), []graph.VertexID{2}) {
		t.Fatal("reloaded snapshot not served")
	}
	st.Reload(nil) // ignored
	if st.Snapshot() != s2 || !sameIDs(st.Followers(10), []graph.VertexID{2}) {
		t.Fatal("nil reload should be a no-op")
	}
}

func TestNewNilSnapshot(t *testing.T) {
	st := New(nil)
	if st.Followers(1) != nil {
		t.Fatal("empty store should return nil follower lists")
	}
	if st.Snapshot() == nil {
		t.Fatal("Snapshot() should never be nil")
	}
}

func TestConcurrentReadDuringReload(t *testing.T) {
	b := &Builder{}
	st := New(b.Build([]graph.Edge{follow(1, 10, 0)}))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l := st.Followers(10)
				if len(l) != 1 {
					t.Error("reader saw a partially built snapshot")
					return
				}
			}
		}
	}()
	for i := 0; i < 100; i++ {
		st.Reload(b.Build([]graph.Edge{follow(graph.VertexID(i%5+1), 10, 0)}))
	}
	close(stop)
	wg.Wait()
}

func TestBuildEmpty(t *testing.T) {
	b := &Builder{}
	snap := b.Build(nil)
	if snap.followers.Len() != 0 || snap.NumEdges() != 0 {
		t.Fatal("empty build should be empty")
	}
	if snap.Followers(0) != nil || snap.Follows(0, 0) {
		t.Fatal("empty build answers a lookup")
	}
}

func sameIDs(l graph.AdjList, want []graph.VertexID) bool {
	if len(l) != len(want) {
		return false
	}
	for i := range l {
		if l[i] != want[i] {
			return false
		}
	}
	return true
}
