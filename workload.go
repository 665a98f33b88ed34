package motifstream

import "motifstream/internal/workload"

// GraphConfig parametrizes the synthetic follow-graph generator that
// substitutes for the Twitter follow graph (see package internal/workload).
type GraphConfig = workload.GraphConfig

// StreamConfig parametrizes the synthetic bursty event-stream generator
// that substitutes for the production firehose.
type StreamConfig = workload.StreamConfig

// GenFollowGraph generates static A→B follow edges with a heavy-tailed
// in-degree distribution.
var GenFollowGraph = workload.GenFollowGraph

// GenEventStream generates a timestamp-ordered dynamic edge stream with
// temporally-correlated bursts — the pattern that forms diamond motifs.
var GenEventStream = workload.GenEventStream

// DefaultGraphConfig returns a laptop-scale graph configuration.
var DefaultGraphConfig = workload.DefaultGraphConfig

// DefaultStreamConfig returns a laptop-scale stream configuration.
var DefaultStreamConfig = workload.DefaultStreamConfig
