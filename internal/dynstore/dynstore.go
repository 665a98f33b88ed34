// Package dynstore implements the paper's D data structure: for each query
// vertex C, the recent B→C edges with their creation timestamps. D is the
// hot, fully-dynamic half of the system — every partition ingests the
// entire edge stream into its own D — so it is sharded for write
// concurrency, pruned to a retention window to bound memory (paper §2:
// "memory pressure can be alleviated by pruning the D data structure to
// only retain the most recent edges"), and accounts its own size for
// experiment E5. A shard is flat arrays, the way graph.Packed holds S: no
// target owns a heap object, and the garbage collector has no pointer to scan.
package dynstore

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"motifstream/internal/arena"
	"motifstream/internal/graph"
)

// InEdge is one retained B→C edge: the source B and its creation time.
type InEdge struct {
	B  graph.VertexID
	TS int64 // Unix milliseconds
}

// entryBytes is the size of one InEdge in an arena, slotBytes that of one
// key-table slot (a key and its span): the units of MemoryBytes.
const entryBytes, slotBytes = 16, 8 + 12

// fibHash is 2^64 / φ; a shard and a table slot take different bits of c·fibHash.
const fibHash = 0x9e3779b97f4a7c15

// Options configures a Store.
type Options struct {
	// Retention is the window τ within which edges count toward motifs.
	// Edges older than Retention relative to the newest observed time are
	// pruned. Zero means no time-based pruning.
	Retention time.Duration

	// MaxPerTarget caps retained in-edges per C; the oldest fall off.
	// Protects against celebrity C's during viral events. Zero = unlimited.
	MaxPerTarget int
}

// shardCount is D's number of lock shards.
const shardCount = 64

// Store is the D structure. All methods are safe for concurrent use.
type Store struct {
	retentionMS int64
	maxPer      int
	mask        uint64
	shards      []shard

	order arena.Order // the compactions' scratch: one per store, not per shard
}

// shard is one lock's part of D. keys and spans are an open-addressing table
// (Fibonacci hash, linear probing, at most 3/4 full) of the targets holding
// edges. A target's list is a block of arena, oldest first: internal/arena is
// the mechanism, policy D's numbers. Insert drops the expired prefix and the
// cap's overflow from the block's front and moves a full block at twice its
// length. A sweep compacts the arena and re-places the table in place, so a
// store at its working set keeps both arrays.
type shard struct {
	mu    sync.RWMutex
	keys  []graph.VertexID
	spans []arena.Block // 0 edges marks a free slot, whose span is all zero
	shift uint          // 64 - log2(len(keys)): a key's home slot is its hash's top bits
	n     int           // occupied slots
	arena arena.Arena[InEdge]
	edges int64 // retained edge count in this shard
	// The dirty log lets a cut copy only the targets changed since the last:
	// dirty takes a target when its span takes dirtyBit (a key repeats only
	// if a sweep emptied it in between), gone each target a sweep emptied.
	dirty, gone []graph.VertexID
}

// dirtyBit, the owner's bit of a span's Size, marks a target on the dirty log.
const dirtyBit = arena.Mark

// policy is D's arena policy (docs/BENCHMARKS.md, "Ingest point"): a move
// without room compacts at an eighth of garbage, else grows the arena by a
// quarter; a compaction leaves a quarter of room, replacing an arena without
// it or over four times it, so a sweep at the working set keeps its arena.
var policy = arena.Policy{Garbage: 8, Grow: 4, Room: 4, NewRoom: 4, Shrink: 4}

// blocks is sh's occupied spans, sized by edges: an insert's drop still counts.
func (sh *shard) blocks() arena.Blocks {
	return arena.Blocks{N: len(sh.spans), Live: int(sh.edges), At: func(i int) *arena.Block {
		if sh.spans[i].N == 0 {
			return nil
		}
		return &sh.spans[i]
	}}
}

// New creates a Store with the given options.
func New(opts Options) *Store { return newStore(opts, shardCount) }

// newStore is New over n lock shards, a power of two for cheap masking: D
// runs shardCount, the tests fewer, to crowd one shard's table.
func newStore(opts Options, n int) *Store {
	return &Store{
		retentionMS: opts.Retention.Milliseconds(),
		maxPer:      opts.MaxPerTarget,
		mask:        uint64(n - 1),
		shards:      make([]shard, n),
	}
}

func (s *Store) shardFor(c graph.VertexID) *shard {
	return &s.shards[(uint64(c)*fibHash>>32)&s.mask]
}

// slot returns c's slot, or the free slot where a probe for it ends; -1
// when the table has no slots.
func (sh *shard) slot(c graph.VertexID) int {
	if len(sh.keys) == 0 {
		return -1
	}
	mask := len(sh.keys) - 1
	for i := int(uint64(c) * fibHash >> sh.shift); ; i = (i + 1) & mask {
		if sh.spans[i].N == 0 || sh.keys[i] == c {
			return i
		}
	}
}

// list returns c's retained edges, empty when it has none.
func (sh *shard) list(c graph.VertexID) []InEdge {
	if i := sh.slot(c); i >= 0 {
		return sh.arena.Window(sh.spans[i])
	}
	return nil
}

// tableSize is the table n targets are rebuilt at: the least power of two,
// at least 8, they fill at most 3/4 of; 0 for none.
func tableSize(n int) int {
	if n == 0 {
		return 0
	}
	return max(8, 1<<bits.Len(uint((4*n-1)/3)))
}

// rehash re-places every occupied slot in a fresh table of size slots.
func (sh *shard) rehash(size int) {
	keys, spans := sh.keys, sh.spans
	sh.keys, sh.spans = make([]graph.VertexID, size), make([]arena.Block, size)
	sh.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i, p := range spans {
		if p.N > 0 {
			j := sh.slot(keys[i])
			sh.keys[j], sh.spans[j] = keys[i], p
		}
	}
}

// replace re-places every target in the same table after a sweep emptied
// some, walking once around it from free, a slot that was free before the
// sweep: no probe path crosses it, so each target lands at or before the
// slot it leaves and never disturbs one already walked.
func (sh *shard) replace(free int) {
	mask := len(sh.keys) - 1
	for k := 1; k < len(sh.keys); k++ {
		i := (free + k) & mask
		if p := sh.spans[i]; p.N > 0 {
			sh.spans[i] = arena.Block{}
			j := sh.slot(sh.keys[i])
			sh.keys[j], sh.spans[j] = sh.keys[i], p
		}
	}
}

// Insert records edge e (Src=B, Dst=C) and returns the number of retained
// in-edges for C after insertion, pruning expired entries along the way.
func (s *Store) Insert(e graph.Edge) int {
	sh := s.shardFor(e.Dst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.slot(e.Dst)
	if i < 0 || sh.spans[i].N == 0 {
		if 4*(sh.n+1) > 3*len(sh.keys) {
			sh.rehash(max(2*len(sh.keys), 8))
			i = sh.slot(e.Dst)
		}
		sh.keys[i] = e.Dst
		sh.n++
	}
	p, before := &sh.spans[i], sh.spans[i].N
	// Drop the expired prefix (the stream is near-ordered: stragglers go on a
	// later pass) and, at the cap, the oldest.
	list, drop := sh.arena.Window(*p), 0
	if s.retentionMS > 0 {
		cutoff := e.TS - s.retentionMS
		for drop < len(list) && list[drop].TS < cutoff {
			drop++
		}
	}
	if s.maxPer > 0 && len(list)-drop >= s.maxPer {
		drop = len(list) + 1 - s.maxPer
	}
	sh.arena.Drop(p, drop)
	if p.N == p.Cap() {
		sh.arena.Move(p, max(2*int(p.N), 1), policy, sh.blocks(), &s.order)
	}
	list = append(sh.arena.Window(*p), InEdge{B: e.Src, TS: e.TS}) // in place: the block has room
	p.N = uint32(len(list))
	sh.edges += int64(p.N) - int64(before)
	if p.Size&dirtyBit == 0 {
		p.Size |= dirtyBit
		sh.dirty = append(sh.dirty, e.Dst)
	}
	return int(p.N)
}

// seenPool recycles the dedup scratch sets used by RecentLimitInto; the
// query path runs once per stream event per partition, so map allocation
// here dominated whole-system CPU before pooling.
var seenPool = sync.Pool{
	New: func() any { return make(map[graph.VertexID]struct{}, 64) },
}

// RecentLimitInto appends to dst (usually dst[:0] of a reusable buffer) the
// limit most recent distinct B's that pointed at c at or after since (Unix
// ms; limit <= 0: all), each at its latest timestamp, oldest first. The
// detection path passes its fanout cap, so a viral target costs O(limit) a
// query, not O(window); once dst has capacity the call allocates nothing.
func (s *Store) RecentLimitInto(dst []InEdge, c graph.VertexID, sinceMS int64, limit int) []InEdge {
	sh := s.shardFor(c)
	sh.mu.RLock()
	list := sh.list(c)
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
// Insert also prunes lazily per target. Returns edges removed. A shard it
// prunes is compacted and its table re-placed in place — rebuilt smaller
// only when far larger than its live set — the targets it emptied on the
// gone log.
func (s *Store) Sweep(nowMS int64) int {
	if s.retentionMS <= 0 {
		return 0
	}
	cutoff := nowMS - s.retentionMS
	removed := 0
	for k := range s.shards {
		sh := &s.shards[k]
		sh.mu.Lock()
		// A gone target inserted into since is on the dirty log, and back on
		// the gone log below if this sweep empties it: forget its entry.
		sh.gone = slices.DeleteFunc(sh.gone, func(c graph.VertexID) bool { return len(sh.list(c)) > 0 })
		before, targets := removed, sh.n
		free := slices.IndexFunc(sh.spans, func(p arena.Block) bool { return p.N == 0 })
		for i := range sh.spans {
			p := &sh.spans[i]
			list := sh.arena.Window(*p)
			keep := list[:0]
			for _, in := range list {
				if in.TS >= cutoff {
					keep = append(keep, in)
				}
			}
			if len(keep) == len(list) {
				continue
			}
			removed += len(list) - len(keep)
			p.N = uint32(len(keep))
			switch {
			case p.N == 0:
				sh.gone = append(sh.gone, sh.keys[i])
				sh.n--
				*p = arena.Block{}
			case p.Size&dirtyBit == 0:
				p.Size |= dirtyBit
				sh.dirty = append(sh.dirty, sh.keys[i])
			}
		}
		if removed > before {
			sh.edges -= int64(removed - before)
			sh.arena.Compact(0, policy, sh.blocks(), &s.order)
		}
		// A sweep at the working set leaves a table up to 4 times what its
		// targets need (power-of-two sizes); 8 times is a working set gone.
		switch {
		case sh.n == targets:
		case 8*tableSize(sh.n) <= len(sh.keys):
			sh.rehash(tableSize(sh.n))
		default:
			sh.replace(free)
		}
		sh.mu.Unlock()
	}
	return removed
}

// Stats is a point-in-time summary of what the store holds: equal contents
// give equal Stats, however their arrays came to be.
type Stats struct {
	Targets int   // distinct C's retained
	Edges   int64 // retained in-edges
}

// Stats scans the shards and returns current totals.
func (s *Store) Stats() (st Stats) {
	s.each(func(sh *shard) { st.Targets, st.Edges = st.Targets+sh.n, st.Edges+sh.edges })
	return st
}

// MemoryBytes is the exact size of D's arrays, like graph.Packed's: the key
// tables and the arenas' capacity. Unlike Stats it depends on history (a
// restored store's arenas are tight), and it leaves out the dirty log.
func (s *Store) MemoryBytes() (b uint64) {
	s.each(func(sh *shard) { b += uint64(len(sh.keys))*slotBytes + uint64(cap(sh.arena.Buf()))*entryBytes })
	return b
}

// each calls fn with every shard under its read lock.
func (s *Store) each(fn func(sh *shard)) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
		fn(&s.shards[i])
		s.shards[i].mu.RUnlock()
	}
}
