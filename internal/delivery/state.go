// Durable pipeline state: a versioned, CRC32C-framed snapshot codec for
// the parts of the funnel that decide suppression — the dedup LRU (key,
// expiry, recency order) and the per-user fatigue budgets. The cluster
// cuts these snapshots next to its delivery high-water offsets and
// restores them at whole-cluster restart, closing the restart
// duplicate-push window documented in docs/DURABILITY.md: a (user, item)
// pair pushed before a clean Shutdown stays suppressed after the restart, and
// a user's daily budget is not silently reset by the process boundary.
//
// The funnel counters (FunnelStats) are deliberately not part of the
// snapshot: they are observability, reset per run, and callers that want
// totals across restarts fold them externally (cmd/magicrecs does).

package delivery

import (
	"encoding/binary"
	"slices"
	"sort"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// stateMagic identifies the pipeline state snapshot format, version 1.
var stateMagic = [8]byte{'M', 'S', 'D', 'L', 'V', 'S', 0, 1}

const stateVersion = 1

// dedupSnap is one dedup LRU entry in a captured snapshot.
type dedupSnap struct {
	user, item graph.VertexID
	expMS      int64
}

// budgetSnap is one fatigue budget in a captured snapshot.
type budgetSnap struct {
	user  graph.VertexID
	day   int64
	spent int
}

// captureState copies the suppression state out from under the mutex:
// dedup entries oldest-first (so a restore replays them into the same
// recency order) and fatigue budgets sorted by user (so equal states
// encode to equal bytes). The copy is plain memory movement — the
// pipeline stalls for the capture, not for the encode or the disk.
func (p *Pipeline) captureState() ([]dedupSnap, []budgetSnap) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.dedup
	dedup := make([]dedupSnap, 0, len(l.items))
	for i := l.tail; i != noEntry; {
		ent := l.at(i)
		dedup = append(dedup, dedupSnap{user: ent.key.user, item: ent.key.item, expMS: ent.expMS})
		i = ent.prev
	}
	fatigue := make([]budgetSnap, 0, len(p.fatigue))
	for u, b := range p.fatigue {
		fatigue = append(fatigue, budgetSnap{user: u, day: b.day, spent: b.spent})
	}
	sort.Slice(fatigue, func(i, j int) bool { return fatigue[i].user < fatigue[j].user })
	return dedup, fatigue
}

// AppendState appends the pipeline's suppression state — dedup LRU and
// fatigue budgets — as one self-contained section: magic, version, entry
// sections, CRC32C trailer over everything before it. Safe for concurrent
// use; Offer calls block only while the state is copied out, not while it
// is encoded.
func (p *Pipeline) AppendState(b []byte) []byte {
	dedup, fatigue := p.captureState()
	// Room for the whole section up front, every field at its longest: one
	// allocation at most, however large the LRU.
	b = slices.Grow(b, len(stateMagic)+4+(3+3*(len(dedup)+len(fatigue)))*binary.MaxVarintLen64)
	start := len(b)
	b = codecutil.AppendHeader(b, stateMagic, stateVersion)
	b = binary.AppendUvarint(b, uint64(len(dedup)))
	for _, e := range dedup {
		b = binary.AppendUvarint(b, uint64(e.user))
		b = binary.AppendUvarint(b, uint64(e.item))
		b = binary.AppendVarint(b, e.expMS)
	}
	b = binary.AppendUvarint(b, uint64(len(fatigue)))
	for _, f := range fatigue {
		b = binary.AppendUvarint(b, uint64(f.user))
		b = binary.AppendVarint(b, f.day)
		b = binary.AppendUvarint(b, uint64(f.spent))
	}
	return codecutil.AppendChecksum(b, start)
}

// Restore installs the snapshot section that is the rest of c, replacing
// the pipeline's dedup LRU and fatigue budgets wholesale. The section's
// checksum is verified before it is parsed and it is decoded in full before
// anything is installed, so corrupt or truncated input returns an error
// and leaves the pipeline exactly as it was. When the snapshot holds more
// dedup entries than the pipeline's capacity (a config shrink across a
// restart), the newest entries win. Funnel counters are untouched.
func (p *Pipeline) Restore(c *codecutil.Cursor) error {
	c.Checked()
	c.Header(stateMagic, stateVersion)
	dedup := make([]dedupSnap, c.Count("dedup count", 3))
	for i := range dedup {
		dedup[i] = dedupSnap{
			user:  graph.VertexID(c.U("dedup user")),
			item:  graph.VertexID(c.U("dedup item")),
			expMS: c.I("dedup expiry"),
		}
	}
	fatigue := make([]budgetSnap, c.Count("fatigue count", 3))
	for i := range fatigue {
		fatigue[i] = budgetSnap{
			user:  graph.VertexID(c.U("fatigue user")),
			day:   c.I("fatigue day"),
			spent: int(c.U("fatigue spent")),
		}
	}
	if err := c.Done(); err != nil {
		return err
	}
	p.install(dedup, fatigue)
	return nil
}

// install swaps a fully decoded snapshot in under the mutex.
func (p *Pipeline) install(dedup []dedupSnap, fatigue []budgetSnap) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := newLRUTTL(p.opts.DedupCapacity, p.opts.DedupTTL)
	if len(dedup) > l.cap {
		dedup = dedup[len(dedup)-l.cap:] // newest entries win
	}
	for _, e := range dedup {
		k := dedupKey{user: e.user, item: e.item}
		if i, ok := l.items[k]; ok {
			// Duplicate keys cannot come from AppendState, but arbitrary input
			// may carry them; keep the newest and its recency.
			l.remove(i)
		}
		l.insert(k, e.expMS)
	}
	m := make(map[graph.VertexID]budget, len(fatigue))
	for _, b := range fatigue {
		m[b.user] = budget{day: b.day, spent: b.spent}
	}
	p.dedup = l
	p.fatigue = m
}
