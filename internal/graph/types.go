// Package graph provides the core graph primitives used throughout
// motifstream: vertex and edge types, sorted adjacency lists, a packed
// immutable map from vertices to such lists, and the sorted-set
// intersection algorithms that the paper's detection step is built on.
package graph

import (
	"encoding/binary"
	"fmt"
	"time"

	"motifstream/internal/codecutil"
)

// VertexID identifies a user account. The paper's A/B/C roles are all
// VertexIDs; the role is positional, not a property of the vertex.
type VertexID uint64

// EdgeType distinguishes the user actions that create edges. The paper's
// running example uses follows; the same machinery serves retweets and
// favorites for content recommendation.
type EdgeType uint8

const (
	// Follow is a B→C "B followed C" edge.
	Follow EdgeType = iota
	// Retweet is a B→C "B retweeted tweet C" edge; C is a tweet vertex.
	Retweet
	// Favorite is a B→C "B favorited tweet C" edge; C is a tweet vertex.
	Favorite
)

// String returns the lowercase action name.
func (t EdgeType) String() string {
	switch t {
	case Follow:
		return "follow"
	case Retweet:
		return "retweet"
	case Favorite:
		return "favorite"
	default:
		return fmt.Sprintf("edgetype(%d)", uint8(t))
	}
}

// Edge is a directed, timestamped action edge. In the paper's notation the
// dynamic stream consists of B→C edges: Src is the B, Dst is the C.
type Edge struct {
	Src  VertexID
	Dst  VertexID
	Type EdgeType
	// TS is the creation time in Unix milliseconds. Milliseconds keep the
	// struct compact while comfortably exceeding the paper's seconds-level
	// freshness window resolution.
	TS int64
}

// Time converts the edge timestamp to a time.Time.
func (e Edge) Time() time.Time { return time.UnixMilli(e.TS) }

// AppendEdge appends the one encoding of an edge — the firehose log's
// record, and the form an edge takes in wire frames and in a candidate's
// trigger: Src and Dst as uvarints, Type as one byte, TS as a zigzag varint.
func AppendEdge(b []byte, e Edge) []byte {
	b = binary.AppendUvarint(b, uint64(e.Src))
	b = binary.AppendUvarint(b, uint64(e.Dst))
	b = append(b, byte(e.Type))
	return binary.AppendVarint(b, e.TS)
}

// ReadEdge reads an edge as AppendEdge wrote it.
func ReadEdge(c *codecutil.Cursor, context string) Edge {
	var e Edge
	e.Src = VertexID(c.U(context))
	e.Dst = VertexID(c.U(context))
	e.Type = EdgeType(c.Byte(context))
	e.TS = c.I(context)
	return e
}

// String renders the edge for logs and tests.
func (e Edge) String() string {
	return fmt.Sprintf("%d-%s->%d@%d", e.Src, e.Type, e.Dst, e.TS)
}

// Millis converts a time.Time to the Unix-millisecond representation used
// by Edge.TS.
func Millis(t time.Time) int64 { return t.UnixMilli() }
