package cluster

import (
	"path/filepath"
	"testing"

	"motifstream/internal/graph"
	"motifstream/internal/queue"
	"motifstream/internal/racetest"
)

// TestEdgeCodecRoundTrip: the firehose record codec inverts itself through
// one marshaler, whose buffer each call overwrites.
func TestEdgeCodecRoundTrip(t *testing.T) {
	marshal := edgeMarshaler()
	for _, e := range []graph.Edge{
		{Src: 1, Dst: 2, Type: graph.Follow, TS: 3},
		{Src: 1 << 40, Dst: 7, Type: graph.EdgeType(2), TS: -5},
		{Src: 0, Dst: 1<<63 + 1, Type: graph.Follow, TS: 1 << 50},
	} {
		b, err := marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := unmarshalEdge(b); err != nil || got != e {
			t.Fatalf("round trip of %+v: %+v, %v", e, got, err)
		}
	}
}

// walFirehose opens the firehose as a hub does — a topic of queueBuffer
// over a WAL with the cluster's record codec, here with 64 KiB segments —
// and calls attach before the first publish. The returned publish appends
// one edge, then runs each; settle publishes across two rotations, so the
// second segment's index is sized from the first, which was grown by
// appends, and returns how many publishes a segment holds.
func walFirehose(t *testing.T, attach func(*queue.Topic[graph.Edge]), each func()) (publish func(), settle func() int, segments func() int) {
	t.Helper()
	dir := t.TempDir()
	wal, err := queue.OpenWAL(queue.WALOptions[graph.Edge]{
		Dir: dir, Marshal: edgeMarshaler(), Unmarshal: unmarshalEdge, SegmentBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	topic := queue.NewTopicWithLog[graph.Edge](queue.Options{Name: "firehose", Buffer: queueBuffer}, wal)
	t.Cleanup(topic.Close)
	if attach != nil {
		attach(topic)
	}
	ts := int64(1_700_000_000_000)
	publish = func() {
		ts += 7
		if err := topic.Publish(graph.Edge{Src: graph.VertexID(ts % 20_000), Dst: graph.VertexID(ts % 19_997), Type: graph.Follow, TS: ts}, 0); err != nil {
			t.Fatal(err)
		}
		if each != nil {
			each()
		}
	}
	segments = func() int {
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	settle = func() int {
		for segments() < 3 {
			publish()
		}
		return int(wal.End()) / 2
	}
	return publish, settle, segments
}

// TestWALAppendZeroAlloc gates the firehose's durable publish: a warm topic
// over the WAL with the cluster's record codec allocates nothing a publish
// between two rotations — the record is encoded into the marshaler's buffer
// and framed in the WAL's, and a segment's index is sized from the one
// before it. A rotation (a new file, its writer and index) is allowed its
// allocations.
func TestWALAppendZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// No reader: a publisher parked on a lagging reader may take a fresh
	// sudog from the runtime, which is the scheduler's allocation, not the
	// publish path's.
	publish, settle, segments := walFirehose(t, nil, nil)
	perSegment := settle()
	// Five batches (AllocsPerRun's warm-up and four) stay inside the third
	// segment. The mean a batch, rounded down, forgives the runtime's own
	// background allocations (a scavenger timer, now and then), not one a
	// publish or a sync batch.
	batch := perSegment / 10
	allocs := testing.AllocsPerRun(4, func() {
		for range batch {
			publish()
		}
	})
	if segments() != 3 {
		t.Fatalf("the measured publishes crossed a rotation (%d segments)", segments())
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations a batch of %d publishes, want 0", allocs, batch)
	}
}

// TestFirehoseReadersZeroAlloc gates the firehose as the deployment reads
// it: a durable publish with the 4×2 deployment's eight readers attached,
// each taking its batch of 16 and then finding nothing, as a consumer does
// before it waits on Ready — so the next publish wakes all eight. The readers
// run on the test goroutine, so no publisher or reader parks.
func TestFirehoseReadersZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const readers, batch = 8, 16
	var rs []*queue.Reader[graph.Edge]
	buf := make([]queue.Envelope[graph.Edge], batch)
	published := 0
	publish, settle, segments := walFirehose(t, func(topic *queue.Topic[graph.Edge]) {
		for range readers {
			r, err := topic.NewReader(0)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
	}, func() {
		if published++; published%batch != 0 {
			return
		}
		for _, r := range rs {
			if n, err := r.Read(buf); n != batch || err != nil {
				t.Fatalf("read %d, %v, want a batch of %d", n, err, batch)
			}
			if n, err := r.Read(buf); n != 0 || err != nil {
				t.Fatalf("read %d, %v past the head", n, err)
			}
			select {
			case <-r.Ready():
			default:
			}
		}
	})
	perSegment := settle()
	rounds := perSegment / 10 / batch
	allocs := testing.AllocsPerRun(4, func() {
		for range rounds * batch {
			publish()
		}
	})
	if segments() != 3 {
		t.Fatalf("the measured publishes crossed a rotation (%d segments)", segments())
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations a round of %d publishes read by %d readers, want 0", allocs, rounds*batch, readers)
	}
}

// TestReaderTailReadZeroAlloc gates a consumer's batch read from the
// firehose's in-memory tail.
func TestReaderTailReadZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs, batch = 100, 16
	topic := queue.NewTopicWithLog[graph.Edge](queue.Options{Name: "firehose", Buffer: queueBuffer}, nil)
	defer topic.Close()
	r, err := topic.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range (runs + 1) * batch {
		if err := topic.Publish(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Type: graph.Follow, TS: int64(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]queue.Envelope[graph.Edge], batch)
	allocs := testing.AllocsPerRun(runs, func() {
		if n, err := r.Read(buf); n != batch || err != nil {
			t.Fatalf("read %d, %v, want a batch of %d", n, err, batch)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocations a batch read from the tail, want 0", allocs)
	}
}
