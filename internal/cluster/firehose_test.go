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
	dir := t.TempDir()
	wal, err := queue.OpenWAL(queue.WALOptions[graph.Edge]{
		Dir: dir, Marshal: edgeMarshaler(), Unmarshal: unmarshalEdge, SegmentBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	// No subscriber: a publisher parked on a full channel may take a fresh
	// sudog from the runtime, which is the scheduler's allocation, not the
	// publish path's.
	topic := queue.NewTopicWithLog[graph.Edge](queue.Options{Name: "firehose"}, wal)
	defer topic.Close()

	ts := int64(1_700_000_000_000)
	publish := func() {
		ts += 7
		if err := topic.Publish(graph.Edge{Src: graph.VertexID(ts % 20_000), Dst: graph.VertexID(ts % 19_997), Type: graph.Follow, TS: ts}, 0); err != nil {
			t.Fatal(err)
		}
	}
	segments := func() int {
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	// Warm up across two rotations: the second segment's index is sized
	// from the first, which was grown by appends.
	for segments() < 3 {
		publish()
	}
	perSegment := int(wal.End()) / 2
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
