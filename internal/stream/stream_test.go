package stream

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"motifstream/internal/graph"
)

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

// TestReadRejectsImplausibleCount: a count that the bytes after it cannot
// hold fails before anything is sized by it. 2^22 edges of 32 bytes would be
// a 128 MiB allocation for a 16-byte file.
func TestReadRejectsImplausibleCount(t *testing.T) {
	b := binary.AppendUvarint(append([]byte(nil), streamMagic[:]...), 1<<22)
	b = append(b, 0, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEdges(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count of 2^22 edges in 4 bytes was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting it allocated %d bytes, want under 1 MiB", alloc)
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
