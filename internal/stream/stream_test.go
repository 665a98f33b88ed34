package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"motifstream/internal/graph"
)

func TestSliceSource(t *testing.T) {
	edges := []graph.Edge{
		{Src: 1, Dst: 2, TS: 10},
		{Src: 3, Dst: 4, TS: 20},
	}
	s := NewSliceSource(edges)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	e1, ok := s.Next()
	if !ok || e1.Src != 1 {
		t.Fatalf("first = %v, %v", e1, ok)
	}
	e2, ok := s.Next()
	if !ok || e2.Src != 3 {
		t.Fatalf("second = %v, %v", e2, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source yielded an edge")
	}
	s.Reset()
	if e, ok := s.Next(); !ok || e.Src != 1 {
		t.Fatal("Reset did not rewind")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	edges := []graph.Edge{
		{Src: 1, Dst: 2, Type: graph.Follow, TS: 1_000},
		{Src: 3, Dst: 4, Type: graph.Retweet, TS: 2_000},
		{Src: 1<<40 + 5, Dst: 9, Type: graph.Favorite, TS: 1_500}, // out of order TS, big ID
		{Src: 0, Dst: 0, Type: graph.Follow, TS: 0},
	}
	var buf bytes.Buffer
	if err := WriteEdges(&buf, edges); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdges(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, edges) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, edges)
	}
}

func TestWriteReadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEdges(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdges(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := ReadEdges(strings.NewReader("NOTMAGIC-whatever")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadEdges(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	edges := make([]graph.Edge, 100)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), TS: int64(i)}
	}
	var buf bytes.Buffer
	if err := WriteEdges(&buf, edges); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, len(full) / 2, len(full) - 1} {
		if _, err := ReadEdges(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(500)
		edges := make([]graph.Edge, n)
		ts := int64(0)
		for i := range edges {
			ts += int64(r.Intn(1000)) - 100 // occasionally backwards
			edges[i] = graph.Edge{
				Src:  graph.VertexID(r.Uint64() >> 16),
				Dst:  graph.VertexID(r.Uint64() >> 16),
				Type: graph.EdgeType(r.Intn(3)),
				TS:   ts,
			}
		}
		var buf bytes.Buffer
		if err := WriteEdges(&buf, edges); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdges(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(got), n)
		}
		if n > 0 && !reflect.DeepEqual(got, edges) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

type collector struct {
	edges []graph.Edge
}

func (c *collector) Publish(e graph.Edge) error {
	c.edges = append(c.edges, e)
	return nil
}

func TestProducerUnthrottled(t *testing.T) {
	edges := make([]graph.Edge, 1_000)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: 1, TS: int64(i)}
	}
	var sink collector
	p := &Producer{Source: NewSliceSource(edges)}
	stats, err := p.Run(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 1_000 || len(sink.edges) != 1_000 {
		t.Fatalf("published %d / collected %d", stats.Events, len(sink.edges))
	}
}

func TestProducerThrottled(t *testing.T) {
	const n = 400
	edges := make([]graph.Edge, n)
	var sink collector
	p := &Producer{
		Source: NewSliceSource(edges),
		Rate:   2_000, // 400 events at 2000/s = 200ms minimum
		Batch:  50,
	}
	start := time.Now()
	stats, err := p.Run(&sink)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("run finished in %v; throttle not applied", elapsed)
	}
	got := float64(stats.Events) / stats.Elapsed.Seconds()
	if got > 3_000 {
		t.Fatalf("achieved %.0f events/s, want <= ~2000", got)
	}
}

type failer struct{ after int }

func (f *failer) Publish(graph.Edge) error {
	f.after--
	if f.after < 0 {
		return errFail
	}
	return nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "fail" }

func TestProducerStopsOnPublishError(t *testing.T) {
	edges := make([]graph.Edge, 100)
	p := &Producer{Source: NewSliceSource(edges)}
	stats, err := p.Run(&failer{after: 10})
	if err == nil {
		t.Fatal("expected publish error")
	}
	if stats.Events != 10 {
		t.Fatalf("Events = %d, want 10 successful", stats.Events)
	}
}

func TestPublisherFunc(t *testing.T) {
	n := 0
	var pub Publisher = PublisherFunc(func(graph.Edge) error { n++; return nil })
	pub.Publish(graph.Edge{})
	if n != 1 {
		t.Fatal("PublisherFunc not invoked")
	}
}
