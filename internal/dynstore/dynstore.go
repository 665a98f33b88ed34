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

	// order is compact's scratch: the occupied slots of the shard it
	// compacts, by offset. One per store under its own lock (taken inside
	// a shard's), not one per shard.
	orderMu sync.Mutex
	order   []uint64
}

// shard is one lock's part of D. keys and spans are an open-addressing table
// (Fibonacci hash, linear probing, at most 3/4 full) of the targets holding
// edges. A target's list is arena[off:off+n], oldest first, in a block only
// it appends into. Insert drops the expired prefix and the cap's overflow by
// advancing off and moves a full block to the arena's end at twice its
// length; the garbage either leaves lasts until a compaction. A sweep
// rebuilds both arrays in place, so a store at its working set keeps them.
type shard struct {
	mu      sync.RWMutex
	keys    []graph.VertexID
	spans   []span
	shift   uint // 64 - log2(len(keys)): a key's home slot is its hash's top bits
	n       int  // occupied slots
	arena   []InEdge
	garbage int   // arena entries in no block
	edges   int64 // retained edge count in this shard
	// The dirty log lets a cut copy only the targets changed since the last:
	// dirty takes a target when its span takes dirtyBit (a key repeats only
	// if a sweep emptied it in between), gone each target a sweep emptied.
	dirty, gone []graph.VertexID
}

// span locates a target's list: n edges from off, in a block of cap()
// edges. 0 edges marks a free slot, whose span is all zero. A shard holds
// fewer than 2³¹ edges.
type span struct{ off, n, block uint32 }

// dirtyBit, the top bit of block, marks a target on the dirty log.
const dirtyBit = 1 << 31

func (p span) cap() uint32 { return p.block &^ dirtyBit }

// New creates a Store with the given options.
func New(opts Options) *Store {
	n := opts.Shards
	if n <= 0 {
		n = 64
	}
	p := 1 << bits.Len(uint(n-1)) // a power of two, for cheap masking
	return &Store{
		retentionMS: opts.Retention.Milliseconds(),
		maxPer:      opts.MaxPerTarget,
		mask:        uint64(p - 1),
		shards:      make([]shard, p),
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
		if sh.spans[i].n == 0 || sh.keys[i] == c {
			return i
		}
	}
}

// list returns c's retained edges, nil when it has none.
func (sh *shard) list(c graph.VertexID) []InEdge { return sh.at(sh.slot(c)) }

// at returns slot i's list (nil for a free slot or -1), capacity-limited.
func (sh *shard) at(i int) []InEdge {
	if i < 0 || sh.spans[i].n == 0 {
		return nil
	}
	p := sh.spans[i]
	return sh.arena[p.off : p.off+p.n : p.off+p.n]
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
	sh.keys, sh.spans = make([]graph.VertexID, size), make([]span, size)
	sh.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i, p := range spans {
		if p.n > 0 {
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
		if p := sh.spans[i]; p.n > 0 {
			sh.spans[i] = span{}
			j := sh.slot(sh.keys[i])
			sh.keys[j], sh.spans[j] = sh.keys[i], p
		}
	}
}

// compact makes every block exactly its list, packed from the arena's
// start in offset order, with room for a quarter of the live edges plus
// extra after them. The lists slide down the arena they are in; only an
// arena without that room, or more than four times it, is replaced. A sweep
// at the working set finds about twice that room (up to four times in a
// sparse shard), so it keeps the arena it has; docs/BENCHMARKS.md, "Ingest
// point", measures tighter bounds.
func (s *Store) compact(sh *shard, extra int) {
	need := int(sh.edges) + int(sh.edges)/4 + extra
	arena := sh.arena[:0]
	if need > cap(sh.arena) || 4*need < cap(sh.arena) {
		arena = make([]InEdge, 0, need)
	}
	s.orderMu.Lock()
	defer s.orderMu.Unlock()
	s.order = s.order[:0]
	for i, p := range sh.spans {
		if p.n > 0 {
			s.order = append(s.order, uint64(p.off)<<32|uint64(i))
		}
	}
	slices.Sort(s.order)
	for _, o := range s.order {
		p, off := &sh.spans[uint32(o)], len(arena)
		arena = append(arena, sh.arena[p.off:p.off+p.n]...) // in place a memmove down: off <= p.off
		p.off, p.block = uint32(off), p.n|p.block&dirtyBit
	}
	sh.arena, sh.garbage = arena, 0
}

// relocate moves slot i's full block to the arena's end at twice its length.
// An arena too small for it is compacted if an eighth of it is garbage — the
// sooner garbage goes, the less capacity a store at its working set keeps —
// or else grows by a quarter.
func (s *Store) relocate(sh *shard, i int) {
	size := max(2*sh.spans[i].n, 1)
	if len(sh.arena)+int(size) > cap(sh.arena) {
		if 8*sh.garbage >= len(sh.arena) {
			s.compact(sh, int(size))
		} else {
			sh.arena = append(make([]InEdge, 0, len(sh.arena)*5/4+int(size)), sh.arena...)
		}
	}
	p, off := &sh.spans[i], len(sh.arena)
	sh.arena = sh.arena[:off+int(size)]
	copy(sh.arena[off:], sh.at(i))
	sh.garbage += int(p.cap())
	p.off, p.block = uint32(off), size|p.block&dirtyBit
}

// Insert records edge e (Src=B, Dst=C) and returns the number of retained
// in-edges for C after insertion, pruning expired entries along the way.
func (s *Store) Insert(e graph.Edge) int {
	sh := s.shardFor(e.Dst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.slot(e.Dst)
	if i < 0 || sh.spans[i].n == 0 {
		if 4*(sh.n+1) > 3*len(sh.keys) {
			sh.rehash(max(2*len(sh.keys), 8))
			i = sh.slot(e.Dst)
		}
		sh.keys[i] = e.Dst
		sh.n++
	}
	p, before := &sh.spans[i], sh.spans[i].n
	// Drop the expired prefix (the stream is near-ordered: stragglers go on a
	// later pass) and, at the cap, the oldest. The list never empties.
	drop := uint32(0)
	if s.retentionMS > 0 {
		cutoff := e.TS - s.retentionMS
		for drop < p.n && sh.arena[p.off+drop].TS < cutoff {
			drop++
		}
	}
	if s.maxPer > 0 && int(p.n-drop) >= s.maxPer {
		drop = p.n + 1 - uint32(s.maxPer)
	}
	p.off, p.n, p.block = p.off+drop, p.n-drop, p.block-drop
	sh.garbage += int(drop)
	if p.n == p.cap() {
		s.relocate(sh, i)
	}
	sh.arena[p.off+p.n] = InEdge{B: e.Src, TS: e.TS}
	p.n++
	sh.edges += int64(p.n) - int64(before)
	if p.block&dirtyBit == 0 {
		p.block |= dirtyBit
		sh.dirty = append(sh.dirty, e.Dst)
	}
	return int(p.n)
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
		sh.gone = slices.DeleteFunc(sh.gone, func(c graph.VertexID) bool { return sh.list(c) != nil })
		before, targets := removed, sh.n
		free := slices.IndexFunc(sh.spans, func(p span) bool { return p.n == 0 })
		for i := range sh.spans {
			p := &sh.spans[i]
			list := sh.arena[p.off : p.off+p.n]
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
			p.n = uint32(len(keep))
			switch {
			case p.n == 0:
				sh.gone = append(sh.gone, sh.keys[i])
				sh.n--
				*p = span{}
			case p.block&dirtyBit == 0:
				p.block |= dirtyBit
				sh.dirty = append(sh.dirty, sh.keys[i])
			}
		}
		if removed > before {
			sh.edges -= int64(removed - before)
			s.compact(sh, 0)
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
	s.each(func(sh *shard) { b += uint64(len(sh.keys))*slotBytes + uint64(cap(sh.arena))*entryBytes })
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
