package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

// fakeReads is a worker replica's read surface with fixed answers. When
// entered is set, the first RecommendationsFor closes it and waits for
// release, holding the worker's feed reader inside the read.
type fakeReads struct {
	entered, release chan struct{}
	once             sync.Once
}

func (f *fakeReads) ID() int { return 0 }

func (f *fakeReads) RecommendationsFor(a graph.VertexID) []motif.Candidate {
	if f.entered != nil {
		f.once.Do(func() {
			close(f.entered)
			<-f.release
		})
	}
	return []motif.Candidate{{User: a, Item: 7, Via: []graph.VertexID{1, 2}, Program: "diamond", Score: 2}}
}

func (f *fakeReads) TopItems(n int) []partition.ItemCount {
	return []partition.ItemCount{{Item: 7, Count: uint64(n)}}
}

// member waits for the hub to hold attach number n of slot 0/0 and returns
// that attach's broker member.
func (f *fakeHub) member(t *testing.T, n int) *RemoteReplica {
	t.Helper()
	f.await(t, "slot 0/0 never attached", func() bool { return f.attached[[2]int{0, 0}] >= n })
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads[[2]int{0, 0}].(*RemoteReplica)
}

func readErrors(srv *Server) uint64 {
	return srv.cfg.Metrics.Counter("transport.read.errors").Value()
}

// subscribeReads dials a feed client and attaches slot 0/0 with reads as its
// read surface, streaming from offset 0.
func subscribeReads(t *testing.T, srv *Server, reads *fakeReads) *FeedSub {
	t.Helper()
	fc, err := DialFeed(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fc.Close)
	sub, err := fc.SubscribeReplica(0, 0, 0, 0, 0, reads)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestRemoteReadRoundTrip: both reads cross a real socket on the slot's feed
// connection — the only connection the worker dialed — and return what the
// worker's read surface returns.
func TestRemoteReadRoundTrip(t *testing.T) {
	fake := newFakeHub(3)
	srv := testServer(t, fake)
	reads := &fakeReads{}
	subscribeReads(t, srv, reads)
	rr := fake.member(t, 1)
	if got, want := rr.RecommendationsFor(5), reads.RecommendationsFor(5); !reflect.DeepEqual(got, want) {
		t.Errorf("RecommendationsFor = %+v, want %+v", got, want)
	}
	if got, want := rr.TopItems(3), reads.TopItems(3); !reflect.DeepEqual(got, want) {
		t.Errorf("TopItems = %+v, want %+v", got, want)
	}
	if n := readErrors(srv); n != 0 {
		t.Errorf("%d read errors counted", n)
	}
	if n := srv.Connections(); n != 1 {
		t.Errorf("hub holds %d connections, want the one feed", n)
	}
}

// TestRemoteReadAcrossDrop: a read in flight when the feed connection drops
// returns the answer or a counted error at once, never hangs, and the member
// of the resubscribed feed serves the next read.
func TestRemoteReadAcrossDrop(t *testing.T) {
	fake := newFakeHub(3)
	srv := testServer(t, fake)
	reads := &fakeReads{entered: make(chan struct{}), release: make(chan struct{})}
	subscribeReads(t, srv, reads)
	rr := fake.member(t, 1)
	got := make(chan []motif.Candidate, 1)
	go func() { got <- rr.RecommendationsFor(5) }()
	<-reads.entered // the request reached the worker, which holds its answer
	if srv.DropConnections() == 0 {
		t.Fatal("nothing to drop")
	}
	select {
	case recs := <-got:
		if recs == nil && readErrors(srv) != 1 {
			t.Errorf("empty read across the drop with %d errors counted, want 1", readErrors(srv))
		}
	case <-time.After(ReadTimeout):
		t.Fatal("read in flight across the drop still waiting after the read timeout")
	}
	close(reads.release)

	rr2 := fake.member(t, 2)
	if rr2 == rr {
		t.Fatal("the resubscribed feed kept the dropped connection's member")
	}
	if recs := rr2.RecommendationsFor(5); len(recs) != 1 || recs[0].User != 5 {
		t.Errorf("first read after the resubscribe = %+v", recs)
	}
}

// TestRemoteReadBehindFullFeed pins the read-waits-behind-feed outcome: a
// worker whose subscription holds feedBuffer envelopes unread reads nothing
// from the socket, so a read returns empty at the timeout and counts one error. Once
// the consumer drains, the feed still delivers every offset once, in order,
// and the next read is answered — the late answer to the timed-out one is
// dropped.
func TestRemoteReadBehindFullFeed(t *testing.T) {
	fake := newFakeHub(3)
	const n = 400
	for i := 0; i < n; i++ {
		fake.publish(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), TS: int64(i)})
	}
	srv := testServer(t, fake)
	sub := subscribeReads(t, srv, &fakeReads{})
	rr := fake.member(t, 1)
	rr.timeout = 100 * time.Millisecond
	buffered := func() int {
		sub.mu.Lock()
		defer sub.mu.Unlock()
		return len(sub.pend) - sub.rd
	}
	for deadline := time.Now().Add(10 * time.Second); buffered() < feedBuffer; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("subscription holds %d of %d", buffered(), feedBuffer)
		}
	}

	start := time.Now()
	if recs := rr.RecommendationsFor(5); recs != nil {
		t.Fatalf("read behind a full feed answered %+v", recs)
	}
	if d := time.Since(start); d < rr.timeout || d > rr.timeout+time.Second {
		t.Errorf("read behind a full feed returned after %v, want the %v timeout", d, rr.timeout)
	}
	if n := readErrors(srv); n != 1 {
		t.Errorf("%d read errors counted, want 1", n)
	}

	for i := 0; i < n; i++ {
		if env, _ := recv(t, sub); env.Offset != uint64(i) {
			t.Fatalf("envelope %d has offset %d", i, env.Offset)
		}
	}
	rr.timeout = ReadTimeout
	if recs := rr.RecommendationsFor(6); len(recs) != 1 || recs[0].User != 6 {
		t.Errorf("read after the drain = %+v", recs)
	}
	fake.closeTopic()
	if env, ok := recv(t, sub); ok {
		t.Errorf("envelope %d after the last offset", env.Offset)
	}
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
}
