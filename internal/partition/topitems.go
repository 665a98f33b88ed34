package partition

import (
	"sort"
	"sync"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// ItemCount pairs a recommended item with how many times this partition
// recommended it.
type ItemCount struct {
	Item  graph.VertexID
	Count uint64
}

// itemCounter tracks per-item recommendation totals for the fan-out read
// path ("what's trending"). Counts are partition-local; the broker merges
// them across partitions. dirty tracks items whose counts changed since
// the last delta checkpoint cut.
type itemCounter struct {
	mu     sync.RWMutex
	counts map[graph.VertexID]uint64
	dirty  map[graph.VertexID]struct{}
}

func newItemCounter() *itemCounter {
	return &itemCounter{
		counts: make(map[graph.VertexID]uint64),
		dirty:  make(map[graph.VertexID]struct{}),
	}
}

// addAll counts every candidate's item under one lock acquisition, a run of
// consecutive candidates for one item — an event's are all for its target —
// as one increment.
func (c *itemCounter) addAll(cands []motif.Candidate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for lo := 0; lo < len(cands); {
		item, hi := cands[lo].Item, lo+1
		for hi < len(cands) && cands[hi].Item == item {
			hi++
		}
		c.counts[item] += uint64(hi - lo)
		c.dirty[item] = struct{}{}
		lo = hi
	}
}

// top returns the n highest-count items, descending by count with item ID
// as the tiebreak so results are deterministic.
func (c *itemCounter) top(n int) []ItemCount {
	if n <= 0 {
		return nil
	}
	c.mu.RLock()
	out := make([]ItemCount, 0, len(c.counts))
	for item, count := range c.counts {
		out = append(out, ItemCount{Item: item, Count: count})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TopItems returns this partition's n most-recommended items — the
// per-partition half of the paper's "brokers that fan-out queries and
// gather results".
func (p *Partition) TopItems(n int) []ItemCount {
	return p.items.top(n)
}

// MergeItemCounts combines per-partition results into a global top-n.
// Partitions own disjoint users, so the same item may appear in several
// lists; counts add.
func MergeItemCounts(lists [][]ItemCount, n int) []ItemCount {
	if n <= 0 {
		return nil
	}
	total := make(map[graph.VertexID]uint64)
	for _, list := range lists {
		for _, ic := range list {
			total[ic.Item] += ic.Count
		}
	}
	out := make([]ItemCount, 0, len(total))
	for item, count := range total {
		out = append(out, ItemCount{Item: item, Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
