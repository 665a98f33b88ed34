// Package motifstream is a reproduction of "Real-Time Twitter
// Recommendation: Online Motif Detection in Large Dynamic Graphs" (Gupta
// et al., VLDB 2014): a system that watches a live edge stream over a
// large graph and, the moment a motif completes — k of a user's followings
// acting on the same item within a time window — emits a recommendation.
//
// The package offers three levels of API:
//
//   - System: a single-node detection engine (the paper's S + D stores and
//     the diamond program) for embedding in another process.
//   - Cluster: the full partitioned/replicated/brokered deployment with
//     simulated message-queue delays and the push-delivery funnel.
//   - CompileMotif: the declarative motif language of the paper's §3,
//     compiled to runnable detection programs.
//
// See the examples directory for runnable entry points, README.md for the
// system inventory, docs/ for durability, operations, queries and
// benchmarks, and cmd/benchreport for the paper's experiment tables.
package motifstream

import (
	"motifstream/internal/delivery"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// VertexID identifies a user account or tweet.
type VertexID = graph.VertexID

// Edge is a directed, timestamped action edge (Src acted on Dst).
type Edge = graph.Edge

// EdgeType distinguishes follow, retweet, and favorite actions.
type EdgeType = graph.EdgeType

// Edge action types.
const (
	Follow   = graph.Follow
	Retweet  = graph.Retweet
	Favorite = graph.Favorite
)

// Candidate is one raw recommendation: push Item to User, supported by the
// Via accounts whose recent actions completed the motif.
type Candidate = motif.Candidate

// Program is a motif plan invoked per stream edge: what CompileMotif and
// NewTriangleClosure return. The engines run plans only.
type Program = motif.Program

// Notification is a candidate that survived the delivery funnel.
type Notification = delivery.Notification

// FunnelStats counts candidates through the delivery pipeline stages.
type FunnelStats = delivery.FunnelStats

// Millis converts a time.Time to the Unix-millisecond timestamps used in
// Edge.TS.
var Millis = graph.Millis
