package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"motifstream/internal/graph"
)

// testdata/edges.golden was written by the bufio encoder that wrote and read
// one field at a time, from goldenEdges below; it pins the recorded-stream
// format across codec rewrites.

func goldenEdges() []graph.Edge {
	return []graph.Edge{
		{Src: 1, Dst: 2, Type: graph.Follow, TS: 1_700_000_000_000},
		{Src: 3, Dst: 4, Type: graph.Retweet, TS: 1_700_000_002_000},
		{Src: 1<<40 + 5, Dst: 9, Type: graph.Favorite, TS: 1_700_000_001_500}, // TS goes backwards
		{Src: 300, Dst: 1<<41 + 7, Type: graph.Follow, TS: 0},
		{Src: 0, Dst: 0, Type: graph.Retweet, TS: 42},
	}
}

func readGolden(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "edges.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenStreamDecodesAndReencodes(t *testing.T) {
	data := readGolden(t)
	var buf bytes.Buffer
	if err := WriteEdges(&buf, goldenEdges()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("encoder output differs from edges.golden:\n got %x\nwant %x", buf.Bytes(), data)
	}
	got, err := ReadEdges(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, goldenEdges()) {
		t.Fatalf("decoded %v, want %v", got, goldenEdges())
	}
}

// FuzzReadEdges: ReadEdges never panics, and a stream it accepts re-encodes
// to one that reads back as the same edges.
func FuzzReadEdges(f *testing.F) {
	f.Add(readGolden(f))
	var empty bytes.Buffer
	if err := WriteEdges(&empty, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		edges, err := ReadEdges(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdges(&buf, edges); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdges(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if !slices.Equal(got, edges) {
			t.Fatalf("round trip: %v -> %v", edges, got)
		}
	})
}
