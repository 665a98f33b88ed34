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
	if snap.NumInfluencers() != 2 {
		t.Fatalf("NumInfluencers = %d, want 2", snap.NumInfluencers())
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

func TestBuildFollowsKeepsPartitionIgnoresCap(t *testing.T) {
	b := &Builder{
		Keep:           func(a graph.VertexID) bool { return a%2 == 0 },
		MaxInfluencers: 1,
	}
	idx := b.BuildFollows([]graph.Edge{
		follow(2, 30, 0), follow(2, 10, 0), follow(2, 10, 5), follow(2, 20, 0),
		follow(3, 10, 0),
	})
	if len(idx) != 1 || !sameIDs(idx[2], []graph.VertexID{10, 20, 30}) {
		t.Fatalf("BuildFollows = %v, want A=2 → [10 20 30] only", idx)
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
	if snap.NumInfluencers() != 0 || snap.NumEdges() != 0 {
		t.Fatal("empty build should be empty")
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
