package dynstore

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"motifstream/internal/graph"
)

func edge(b, c graph.VertexID, ts int64) graph.Edge {
	return graph.Edge{Src: b, Dst: c, Type: graph.Follow, TS: ts}
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

	got := s.Recent(100, 0)
	if len(got) != 2 {
		t.Fatalf("Recent(100) = %v, want 2 entries", got)
	}
	if got[0].B != 1 || got[1].B != 2 {
		t.Fatalf("Recent(100) order = %v, want chronological [1 2]", bsOf(got))
	}
	if got := s.Recent(200, 0); len(got) != 1 || got[0].B != 3 {
		t.Fatalf("Recent(200) = %v", got)
	}
	if got := s.Recent(999, 0); got != nil {
		t.Fatalf("Recent(unknown) = %v, want nil", got)
	}
}

func TestRecentSinceFilter(t *testing.T) {
	s := New(Options{})
	s.Insert(edge(1, 100, 1_000))
	s.Insert(edge(2, 100, 2_000))
	s.Insert(edge(3, 100, 3_000))
	got := s.Recent(100, 2_000)
	if len(got) != 2 || got[0].B != 2 || got[1].B != 3 {
		t.Fatalf("Recent(since=2000) = %v, want B's [2 3]", bsOf(got))
	}
}

func TestRecentDedupsKeepingLatest(t *testing.T) {
	s := New(Options{})
	s.Insert(edge(1, 100, 1_000))
	s.Insert(edge(2, 100, 2_000))
	s.Insert(edge(1, 100, 5_000)) // B=1 acts again, later
	got := s.Recent(100, 0)
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
	got := s.RecentLimit(100, 0, 3)
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
	if got := s.RecentLimit(100, 0, 0); len(got) != 10 {
		t.Fatalf("unlimited = %d entries, want 10", len(got))
	}
	// Limit larger than population.
	if got := s.RecentLimit(100, 0, 99); len(got) != 10 {
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
	got := s.Recent(100, 0)
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
	got := s.Recent(100, 0)
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
	got := s.Recent(100, 0)
	if len(got) != 1 || got[0].B != 2 {
		t.Fatalf("after partial sweep: %v", bsOf(got))
	}
}

func TestStatsBytes(t *testing.T) {
	s := New(Options{})
	if st := s.Stats(); st.Bytes != 0 {
		t.Fatalf("empty store bytes = %d", st.Bytes)
	}
	s.Insert(edge(1, 2, 1))
	if st := s.Stats(); st.Bytes == 0 || st.Edges != 1 || st.Targets != 1 {
		t.Fatalf("stats after one insert: %+v", st)
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
		got := s.Recent(target, since)
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
				s.Insert(edge(graph.VertexID(w), graph.VertexID(i%50), int64(i)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1_000; i++ {
			s.Recent(graph.VertexID(i%50), 0)
			s.Stats()
		}
	}()
	wg.Wait()
	<-done
	st := s.Stats()
	if st.Edges == 0 {
		t.Fatal("no edges retained after concurrent inserts")
	}
}
