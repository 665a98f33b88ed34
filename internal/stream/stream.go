// Package stream is the binary on-disk format for recorded edge streams,
// written by cmd/loadgen and replayed by cmd/magicrecs. In paper terms a
// recorded stream stands in for the firehose: "a data source (e.g., message
// queue) that provides a stream of graph edges as they are created in
// real-time".
package stream

import (
	"encoding/binary"
	"fmt"
	"io"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// streamMagic identifies the binary edge-stream format, version 1.
var streamMagic = [8]byte{'M', 'S', 'T', 'R', 'E', 'A', 'M', 1}

// WriteEdges writes edges in the binary stream format: an 8-byte magic, a
// uvarint count, then each edge as graph.AppendEdge encodes it with TS
// replaced by its delta from the previous edge's — the stream is
// near-ordered, so the deltas stay small.
func WriteEdges(w io.Writer, edges []graph.Edge) error {
	b := binary.AppendUvarint(append([]byte(nil), streamMagic[:]...), uint64(len(edges)))
	var prevTS int64
	for _, e := range edges {
		e.TS, prevTS = e.TS-prevTS, e.TS
		b = graph.AppendEdge(b, e)
	}
	_, err := w.Write(b)
	return err
}

// ReadEdges reads a stream written by WriteEdges. The count is bounded by
// the bytes that follow it (an edge is at least four), so a corrupt count
// fails instead of sizing an allocation.
func ReadEdges(r io.Reader) ([]graph.Edge, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if len(b) < len(streamMagic) || [8]byte(b) != streamMagic {
		return nil, fmt.Errorf("stream: bad magic %q", b[:min(len(b), len(streamMagic))])
	}
	c := codecutil.NewCursor(b[len(streamMagic):], "stream")
	edges := make([]graph.Edge, c.Count("edge count", 4))
	var prevTS int64
	for i := range edges {
		edges[i] = graph.ReadEdge(c, "edge")
		edges[i].TS += prevTS
		prevTS = edges[i].TS
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return edges, nil
}
