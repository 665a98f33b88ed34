package broker

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

// fakeReplica is its own member: it records which replica served each
// read and serves while down is false.
type fakeReplica struct {
	id    int
	tag   int
	down  atomic.Bool
	mu    sync.Mutex
	reads int
}

func (f *fakeReplica) Serving() (Replica, bool) { return f, !f.down.Load() }

func (f *fakeReplica) ID() int                            { return f.id }
func (f *fakeReplica) TopItems(int) []partition.ItemCount { return nil }

func (f *fakeReplica) RecommendationsFor(a graph.VertexID) []motif.Candidate {
	f.mu.Lock()
	f.reads++
	f.mu.Unlock()
	return []motif.Candidate{{User: a, Item: graph.VertexID(f.tag)}}
}

func (f *fakeReplica) readCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

func newTestBroker(t *testing.T, partitions, replicas int) (*Broker, [][]*fakeReplica) {
	t.Helper()
	part := partition.NewHashPartitioner(partitions)
	fakes := make([][]*fakeReplica, partitions)
	groups := make([][]Member, partitions)
	for p := 0; p < partitions; p++ {
		for r := 0; r < replicas; r++ {
			f := &fakeReplica{id: p, tag: p*100 + r}
			fakes[p] = append(fakes[p], f)
			groups[p] = append(groups[p], f)
		}
	}
	b, err := New(part, groups)
	if err != nil {
		t.Fatal(err)
	}
	return b, fakes
}

func TestNewValidation(t *testing.T) {
	part := partition.NewHashPartitioner(2)
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil partitioner accepted")
	}
	if _, err := New(part, make([][]Member, 1)); err == nil {
		t.Fatal("group/partition count mismatch accepted")
	}
	if _, err := New(part, make([][]Member, 2)); err == nil {
		t.Fatal("empty replica group accepted")
	}
}

func TestRoutesToOwningPartition(t *testing.T) {
	b, _ := newTestBroker(t, 4, 1)
	part := partition.NewHashPartitioner(4)
	for a := graph.VertexID(0); a < 100; a++ {
		got, err := b.RecommendationsFor(a)
		if err != nil {
			t.Fatal(err)
		}
		wantPartition := part.PartitionOf(a)
		if int(got[0].Item)/100 != wantPartition {
			t.Fatalf("user %d served by partition %d, want %d",
				a, got[0].Item/100, wantPartition)
		}
	}
	q, f := b.Stats()
	if q != 100 || f != 0 {
		t.Fatalf("stats = %d queries, %d failures", q, f)
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	b, fakes := newTestBroker(t, 1, 3)
	for i := 0; i < 300; i++ {
		if _, err := b.RecommendationsFor(1); err != nil {
			t.Fatal(err)
		}
	}
	for r, f := range fakes[0] {
		if c := f.readCount(); c < 50 || c > 150 {
			t.Fatalf("replica %d served %d of 300 reads; poor balance", r, c)
		}
	}
}

func TestFailoverRoutesAroundDownReplica(t *testing.T) {
	b, fakes := newTestBroker(t, 1, 2)
	fakes[0][0].down.Store(true)
	for i := 0; i < 10; i++ {
		if _, err := b.RecommendationsFor(1); err != nil {
			t.Fatal(err)
		}
	}
	if fakes[0][0].readCount() != 0 {
		t.Fatal("down replica served reads")
	}
	if fakes[0][1].readCount() != 10 {
		t.Fatalf("healthy replica served %d of 10", fakes[0][1].readCount())
	}
	// Recovery restores routing.
	fakes[0][0].down.Store(false)
	for i := 0; i < 20; i++ {
		b.RecommendationsFor(1)
	}
	if fakes[0][0].readCount() == 0 {
		t.Fatal("recovered replica never served")
	}
}

func TestAllReplicasDown(t *testing.T) {
	b, fakes := newTestBroker(t, 1, 2)
	fakes[0][0].down.Store(true)
	fakes[0][1].down.Store(true)
	if _, err := b.RecommendationsFor(1); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	_, failures := b.Stats()
	if failures != 1 {
		t.Fatalf("failures = %d", failures)
	}
}

// TestAddReplicaServes: a member added to a group takes its share of the
// reads, and a nil member is refused.
func TestAddReplicaServes(t *testing.T) {
	b, fakes := newTestBroker(t, 1, 1)
	fakes[0][0].down.Store(true)
	added := &fakeReplica{tag: 7}
	if idx, err := b.AddReplica(0, added); err != nil || idx != 1 {
		t.Fatalf("AddReplica = %d, %v; want index 1", idx, err)
	}
	if got, err := b.RecommendationsFor(1); err != nil || got[0].Item != 7 {
		t.Fatalf("read = %v, %v; want the added member's answer", got, err)
	}
	if _, err := b.AddReplica(0, nil); err == nil {
		t.Fatal("nil member accepted")
	}
	if _, err := b.AddReplica(1, added); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestFanOut(t *testing.T) {
	b, _ := newTestBroker(t, 4, 2)
	got, err := FanOut(b, func(r Replica) int { return r.ID() })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("FanOut returned %d results", len(got))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("partition %d answered with ID %d", i, id)
		}
	}
}

func TestFanOutWithDownGroup(t *testing.T) {
	b, fakes := newTestBroker(t, 2, 1)
	fakes[1][0].down.Store(true)
	got, err := FanOut(b, func(r Replica) int { return 1 })
	if err == nil {
		t.Fatal("expected partial failure error")
	}
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v", err)
	}
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("results = %v, want healthy partition served, down zeroed", got)
	}
}

func TestConcurrentReads(t *testing.T) {
	b, _ := newTestBroker(t, 4, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := b.RecommendationsFor(graph.VertexID(w*500 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	q, _ := b.Stats()
	if q != 4_000 {
		t.Fatalf("queries = %d, want 4000", q)
	}
}
