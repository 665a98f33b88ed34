// Package dynstore implements the paper's D data structure: for each query
// vertex C, the recent B→C edges with their creation timestamps. D is the
// hot, fully-dynamic half of the system — every partition ingests the
// entire edge stream into its own D — so it is sharded for write
// concurrency, pruned to a retention window to bound memory (paper §2:
// "memory pressure can be alleviated by pruning the D data structure to
// only retain the most recent edges"), and accounts its own size for
// experiment E5.
package dynstore

import (
	"sync"
	"time"

	"motifstream/internal/graph"
)

// InEdge is one retained B→C edge: the source B and its creation time.
type InEdge struct {
	B  graph.VertexID
	TS int64 // Unix milliseconds
}

// entryBytes approximates the resident cost of one retained InEdge,
// including slice overhead amortization.
const entryBytes = 16

// Options configures a Store.
type Options struct {
	// Retention is the window τ within which edges count toward motifs.
	// Edges older than Retention relative to the newest observed time are
	// pruned. Zero means no time-based pruning.
	Retention time.Duration

	// MaxPerTarget caps retained in-edges per C; the oldest fall off.
	// Protects against celebrity C's during viral events. Zero = unlimited.
	MaxPerTarget int

	// Shards is the number of lock shards; it is rounded up to a power of
	// two. Zero selects 64.
	Shards int
}

// Store is the D structure. All methods are safe for concurrent use.
type Store struct {
	retentionMS int64
	maxPer      int
	mask        uint64
	shards      []shard
}

type shard struct {
	mu      sync.RWMutex
	targets map[graph.VertexID][]InEdge
	edges   int64 // retained edge count in this shard
	// dirty is the set of targets modified since the last CaptureDelta —
	// inserts, prunes, and sweep deletions all mark it. It is what makes
	// incremental checkpoints possible: a cut copies only these lists
	// instead of the whole shard.
	dirty map[graph.VertexID]struct{}
}

// New creates a Store with the given options.
func New(opts Options) *Store {
	n := opts.Shards
	if n <= 0 {
		n = 64
	}
	// Round up to power of two for cheap masking.
	p := 1
	for p < n {
		p <<= 1
	}
	s := &Store{
		retentionMS: opts.Retention.Milliseconds(),
		maxPer:      opts.MaxPerTarget,
		mask:        uint64(p - 1),
		shards:      make([]shard, p),
	}
	for i := range s.shards {
		s.shards[i].targets = make(map[graph.VertexID][]InEdge)
		s.shards[i].dirty = make(map[graph.VertexID]struct{})
	}
	return s
}

func (s *Store) shardFor(c graph.VertexID) *shard {
	// Fibonacci hashing spreads sequential IDs across shards.
	h := uint64(c) * 0x9e3779b97f4a7c15
	return &s.shards[(h>>32)&s.mask]
}

// Insert records edge e (Src=B, Dst=C) and returns the number of retained
// in-edges for C after insertion, pruning expired entries along the way.
func (s *Store) Insert(e graph.Edge) int {
	sh := s.shardFor(e.Dst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	list := sh.targets[e.Dst]
	before := len(list)
	list = append(list, InEdge{B: e.Src, TS: e.TS})
	list = s.pruneLocked(list, e.TS)
	if s.maxPer > 0 && len(list) > s.maxPer {
		drop := len(list) - s.maxPer
		list = append(list[:0], list[drop:]...)
	}
	sh.targets[e.Dst] = list
	sh.edges += int64(len(list) - before)
	sh.dirty[e.Dst] = struct{}{}
	return len(list)
}

// pruneLocked drops entries older than the retention window relative to
// now. Entries are appended in arrival order; the stream is near-ordered,
// so a linear scan from the front removes the expired prefix. Out-of-order
// stragglers are tolerated: they are removed on a later prune pass.
func (s *Store) pruneLocked(list []InEdge, nowMS int64) []InEdge {
	if s.retentionMS <= 0 || len(list) == 0 {
		return list
	}
	cutoff := nowMS - s.retentionMS
	i := 0
	for i < len(list) && list[i].TS < cutoff {
		i++
	}
	if i == 0 {
		return list
	}
	return append(list[:0], list[i:]...)
}

// seenPool recycles the dedup scratch sets used by Recent queries; the
// query path runs once per stream event per partition, so map allocation
// here dominated whole-system CPU before pooling.
var seenPool = sync.Pool{
	New: func() any { return make(map[graph.VertexID]struct{}, 64) },
}

// Recent returns the B's that pointed at c at or after since (Unix ms),
// deduplicated keeping the most recent timestamp per B, oldest first. The
// result is freshly allocated.
func (s *Store) Recent(c graph.VertexID, sinceMS int64) []InEdge {
	return s.RecentLimit(c, sinceMS, 0)
}

// RecentLimit is Recent restricted to the limit most recent distinct B's;
// limit <= 0 means unlimited. The detection hot path passes its fanout cap
// here so a viral target with thousands of in-window edges costs O(limit)
// per query rather than O(window).
func (s *Store) RecentLimit(c graph.VertexID, sinceMS int64, limit int) []InEdge {
	return s.RecentLimitInto(nil, c, sinceMS, limit)
}

// RecentLimitInto is the appending form of RecentLimit: results are
// appended to dst (usually dst[:0] of a reusable buffer) and the extended
// slice is returned. Once dst has capacity the call performs zero heap
// allocation, which is what keeps the per-event detection path
// allocation-free.
func (s *Store) RecentLimitInto(dst []InEdge, c graph.VertexID, sinceMS int64, limit int) []InEdge {
	sh := s.shardFor(c)
	sh.mu.RLock()
	list := sh.targets[c]
	if len(list) == 0 {
		sh.mu.RUnlock()
		return dst
	}
	base := len(dst)
	out := dst
	seen := seenPool.Get().(map[graph.VertexID]struct{})
	// Scan newest-first: entries are appended in arrival order, so the
	// first time a B appears in the backward scan carries its most recent
	// in-window timestamp, and the scan can stop at the limit.
	for i := len(list) - 1; i >= 0; i-- {
		in := list[i]
		if in.TS < sinceMS {
			// Near-chronological arrival order means entries below the
			// window are rare past this point (out-of-order stragglers
			// only), and the expired prefix is pruned on insert; keep
			// scanning the short remainder rather than breaking early
			// and missing stragglers.
			continue
		}
		if _, dup := seen[in.B]; dup {
			continue
		}
		seen[in.B] = struct{}{}
		out = append(out, in)
		if limit > 0 && len(out)-base >= limit {
			break
		}
	}
	sh.mu.RUnlock()
	clear(seen)
	seenPool.Put(seen)
	// Restore chronological (oldest-first) order within the appended span.
	for i, j := base, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Sweep prunes every target against the given current time and drops empty
// targets. It is called periodically by the partition's background pruner;
// Insert also prunes lazily per target. Returns edges removed.
func (s *Store) Sweep(nowMS int64) int {
	if s.retentionMS <= 0 {
		return 0
	}
	cutoff := nowMS - s.retentionMS
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c, list := range sh.targets {
			keep := list[:0]
			for _, in := range list {
				if in.TS >= cutoff {
					keep = append(keep, in)
				}
			}
			removed += len(list) - len(keep)
			sh.edges -= int64(len(list) - len(keep))
			if len(keep) < len(list) {
				sh.dirty[c] = struct{}{}
			}
			if len(keep) == 0 {
				delete(sh.targets, c)
			} else {
				sh.targets[c] = keep
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Targets int    // distinct C's retained
	Edges   int64  // retained in-edges
	Bytes   uint64 // approximate resident size
}

// Stats scans the shards and returns current totals.
func (s *Store) Stats() Stats {
	var st Stats
	const mapEntryOverhead = 48
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Targets += len(sh.targets)
		st.Edges += sh.edges
		sh.mu.RUnlock()
	}
	st.Bytes = uint64(st.Edges)*entryBytes + uint64(st.Targets)*mapEntryOverhead
	return st
}
