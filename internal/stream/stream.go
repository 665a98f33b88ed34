// Package stream is the binary on-disk format for recorded edge streams,
// written by cmd/loadgen and replayed by cmd/magicrecs. In paper terms a
// recorded stream stands in for the firehose: "a data source (e.g., message
// queue) that provides a stream of graph edges as they are created in
// real-time".
package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"motifstream/internal/graph"
)

// streamMagic identifies the binary edge-stream format, version 1.
var streamMagic = [8]byte{'M', 'S', 'T', 'R', 'E', 'A', 'M', 1}

// WriteEdges writes edges in the binary stream format: an 8-byte magic, a
// uvarint count, then per edge varint-delta-encoded fields. Delta-encoding
// timestamps exploits near-sortedness for compactness.
func WriteEdges(w io.Writer, edges []graph.Edge) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(streamMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(edges))); err != nil {
		return err
	}
	var prevTS int64
	for _, e := range edges {
		if err := put(uint64(e.Src)); err != nil {
			return err
		}
		if err := put(uint64(e.Dst)); err != nil {
			return err
		}
		if err := put(uint64(e.Type)); err != nil {
			return err
		}
		n := binary.PutVarint(buf[:], e.TS-prevTS)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prevTS = e.TS
	}
	return bw.Flush()
}

// ReadEdges reads a stream written by WriteEdges.
func ReadEdges(r io.Reader) ([]graph.Edge, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("stream: reading magic: %w", err)
	}
	if magic != streamMagic {
		return nil, fmt.Errorf("stream: bad magic %q", magic[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("stream: reading count: %w", err)
	}
	const maxEdges = 1 << 30
	if count > maxEdges {
		return nil, fmt.Errorf("stream: implausible edge count %d", count)
	}
	edges := make([]graph.Edge, 0, count)
	var prevTS int64
	for i := uint64(0); i < count; i++ {
		src, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("stream: edge %d src: %w", i, err)
		}
		dst, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("stream: edge %d dst: %w", i, err)
		}
		typ, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("stream: edge %d type: %w", i, err)
		}
		dts, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("stream: edge %d ts: %w", i, err)
		}
		prevTS += dts
		edges = append(edges, graph.Edge{
			Src:  graph.VertexID(src),
			Dst:  graph.VertexID(dst),
			Type: graph.EdgeType(typ),
			TS:   prevTS,
		})
	}
	return edges, nil
}
