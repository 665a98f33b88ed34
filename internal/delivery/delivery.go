// Package delivery implements the notification pipeline between raw motif
// candidates and actual pushes. The paper: "billions of raw candidates are
// generated, yielding millions of push notifications (after eliminating
// duplicates, suppressing messages during non-waking hours, controlling
// for fatigue, etc.)" (§2). The pipeline stages run in that order and the
// funnel counters feed experiment E3.
package delivery

import (
	"math"
	"sync"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// Decision records what the pipeline did with one candidate.
type Decision uint8

const (
	// Delivered means the candidate became a push notification.
	Delivered Decision = iota
	// DroppedDuplicate means the (user,item) pair was pushed recently.
	DroppedDuplicate
	// DroppedAsleep means the user's local time was within sleeping hours.
	DroppedAsleep
	// DroppedFatigue means the user hit the daily push budget.
	DroppedFatigue
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case DroppedDuplicate:
		return "dropped-duplicate"
	case DroppedAsleep:
		return "dropped-asleep"
	case DroppedFatigue:
		return "dropped-fatigue"
	default:
		return "unknown"
	}
}

// Notification is a candidate that survived the funnel.
type Notification struct {
	Candidate motif.Candidate
	// DeliveredAtMS is the stream time at delivery.
	DeliveredAtMS int64
	// Latency is the full end-to-end latency from edge creation to push:
	// simulated queue propagation plus measured processing.
	Latency time.Duration
}

// SleepDisabled, assigned to both SleepStartHour and SleepEndHour, turns
// waking-hours suppression off explicitly. The sentinel exists because the
// zero pair cannot express disabling: (0, 0) is the unset state and
// selects the 23..8 default.
const SleepDisabled = -1

// Options configures the pipeline.
type Options struct {
	// DedupTTL suppresses repeat (user,item) pushes within this window.
	// Zero selects 24h.
	DedupTTL time.Duration
	// DedupCapacity bounds the dedup LRU; zero selects 1<<20 entries.
	DedupCapacity int
	// MaxPerUserPerDay is the fatigue budget; zero selects 4 (push fatigue
	// budgets are small in practice).
	MaxPerUserPerDay int
	// SleepStartHour..SleepEndHour (local, 24h clock) is the non-waking
	// interval; pushes inside it are suppressed. The zero pair selects the
	// 23..8 default. Equal non-zero values — or SleepDisabled in both —
	// disable suppression.
	SleepStartHour, SleepEndHour int
	// TimezoneOf returns the user's UTC offset in hours (may be negative).
	// Nil derives a deterministic offset from the user ID, spreading users
	// over 24 zones.
	TimezoneOf func(u graph.VertexID) int
}

// Pipeline applies dedup, waking-hours, and fatigue policies. Safe for
// concurrent use.
type Pipeline struct {
	opts Options

	mu      sync.Mutex
	dedup   *lruTTL
	fatigue map[graph.VertexID]budget
	notes   codecutil.Arena[Notification]   // what Offer hands out, noteChunk at a time
	vias    codecutil.Arena[graph.VertexID] // their Vias, noteViaChunk at a time

	stats FunnelStats
}

// noteChunk is how many Notifications one allocation holds (≈ 30 KB), and
// noteViaChunk how many of their Via elements (8 KB).
const noteChunk, noteViaChunk = 256, 1024

// FunnelStats counts candidates through each pipeline stage.
type FunnelStats struct {
	Raw              uint64
	DroppedDuplicate uint64
	DroppedAsleep    uint64
	DroppedFatigue   uint64
	Delivered        uint64
}

// DeliveryRate returns Delivered/Raw, or 0 for an empty funnel.
func (s FunnelStats) DeliveryRate() float64 {
	if s.Raw == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Raw)
}

type budget struct {
	day   int64 // stream-day index
	spent int
}

// NewPipeline constructs a pipeline with defaults applied.
func NewPipeline(opts Options) *Pipeline {
	if opts.DedupTTL <= 0 {
		opts.DedupTTL = 24 * time.Hour
	}
	if opts.DedupCapacity <= 0 {
		opts.DedupCapacity = 1 << 20
	}
	if opts.MaxPerUserPerDay <= 0 {
		opts.MaxPerUserPerDay = 4
	}
	if opts.SleepStartHour == SleepDisabled || opts.SleepEndHour == SleepDisabled {
		// Either end carrying the sentinel disables the window outright
		// (equal values short-circuit isAsleep).
		opts.SleepStartHour, opts.SleepEndHour = SleepDisabled, SleepDisabled
	} else if opts.SleepStartHour == 0 && opts.SleepEndHour == 0 {
		opts.SleepStartHour, opts.SleepEndHour = 23, 8
	}
	if opts.TimezoneOf == nil {
		opts.TimezoneOf = func(u graph.VertexID) int {
			return int((uint64(u)*0x9e3779b97f4a7c15)>>40%24) - 12
		}
	}
	return &Pipeline{
		opts:    opts,
		dedup:   newLRUTTL(opts.DedupCapacity, opts.DedupTTL),
		fatigue: make(map[graph.VertexID]budget),
		notes:   codecutil.Arena[Notification]{Chunk: noteChunk},
		vias:    codecutil.Arena[graph.VertexID]{Chunk: noteViaChunk},
	}
}

// Offer runs one candidate through the funnel. queueDelay is the simulated
// propagation delay accumulated on the way here; it is folded into the
// notification latency. The returned notification is non-nil only when the
// decision is Delivered. It is the caller's — the pipeline never reuses or
// writes it again — but it comes from a chunk of noteChunk: one retained note
// keeps its whole chunk (≈ 30 KB) alive. Its Candidate.Via is the pipeline's
// copy of c.Via, a window of an array shared with other notifications' and
// never rewritten, so the pipeline keeps nothing of c: the caller may release
// c's lease (motif.Lease) as soon as Offer returns.
func (p *Pipeline) Offer(c motif.Candidate, queueDelay time.Duration) (Decision, *Notification) {
	nowMS := c.DetectedAtMS + queueDelay.Milliseconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Raw++

	if !p.dedup.add(dedupKey{user: c.User, item: c.Item}, nowMS) {
		p.stats.DroppedDuplicate++
		return DroppedDuplicate, nil
	}
	if p.isAsleep(c.User, nowMS) {
		p.stats.DroppedAsleep++
		return DroppedAsleep, nil
	}
	if !p.spendBudget(c.User, nowMS) {
		p.stats.DroppedFatigue++
		return DroppedFatigue, nil
	}
	p.stats.Delivered++
	lat := time.Duration(nowMS-c.Trigger.TS) * time.Millisecond
	if lat < 0 {
		lat = 0
	}
	n := &p.notes.Take(1)[0]
	*n = Notification{
		Candidate:     c,
		DeliveredAtMS: nowMS,
		Latency:       lat,
	}
	n.Candidate.Via = p.vias.Copy(c.Via)
	return Delivered, n
}

// isAsleep reports whether the user's local hour falls in the sleep window.
func (p *Pipeline) isAsleep(u graph.VertexID, nowMS int64) bool {
	start, end := p.opts.SleepStartHour, p.opts.SleepEndHour
	if start == end {
		return false
	}
	utcHour := (nowMS / int64(time.Hour/time.Millisecond)) % 24
	local := (int(utcHour) + p.opts.TimezoneOf(u)) % 24
	if local < 0 {
		local += 24
	}
	if start < end {
		return local >= start && local < end
	}
	// Window wraps midnight, e.g. 23..8.
	return local >= start || local < end
}

// spendBudget consumes one unit of the user's daily budget, resetting at
// stream-day boundaries.
func (p *Pipeline) spendBudget(u graph.VertexID, nowMS int64) bool {
	day := nowMS / (24 * int64(time.Hour/time.Millisecond))
	b, ok := p.fatigue[u]
	if !ok || b.day != day {
		b = budget{day: day}
	}
	if b.spent >= p.opts.MaxPerUserPerDay {
		return false
	}
	b.spent++
	p.fatigue[u] = b
	return true
}

// Stats returns a copy of the funnel counters.
func (p *Pipeline) Stats() FunnelStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// dedupKey identifies a (user,item) push.
type dedupKey struct {
	user, item graph.VertexID
}

// lruTTL is a capacity-bounded map with per-entry expiry, used for push
// dedup. Stream-time based, so replays behave identically. The entries live
// in a slab — fixed-size chunks of pointer-free records, allocated as the
// population grows and never ahead of it — linked into the recency list by
// index; the map holds indices. An entry costs no allocation of its own, a
// removed one's slot goes on a free list, and a full LRU allocates nothing.
type lruTTL struct {
	cap   int
	ttlMS int64
	items map[dedupKey]int32 // slab index of each live entry
	slab  [][]lruEntry       // chunks of lruChunk entries
	used  int32              // slab slots ever handed out
	// head is the most recent entry, tail the least; free heads the list of
	// vacated slots (linked through next). noEntry ends each.
	head, tail, free int32
	// minExpMS is a lower bound on the earliest expiry anywhere in the
	// list, refreshed by the eviction sweep. Recency order is not expiry
	// order (a live duplicate refreshes recency but keeps its expiry), so
	// finding an expired entry means walking the list; the bound lets a
	// full LRU of live entries skip that walk entirely — a sweep that
	// found nothing expired cannot find anything until minExpMS passes
	// (new and refreshed entries always expire later than the bound).
	minExpMS int64
}

// lruEntry is one slab record: prev is the next more recent entry, next the
// next less recent.
type lruEntry struct {
	key        dedupKey
	expMS      int64
	prev, next int32
}

const (
	// lruChunk is how many entries the slab grows by (32 KB).
	lruChunk = 1024
	noEntry  = int32(-1)
)

func newLRUTTL(capacity int, ttl time.Duration) *lruTTL {
	return &lruTTL{
		cap:   min(capacity, math.MaxInt32), // slab indices are 32-bit
		ttlMS: ttl.Milliseconds(),
		items: make(map[dedupKey]int32),
		head:  noEntry, tail: noEntry, free: noEntry,
	}
}

// at returns slab entry i.
func (l *lruTTL) at(i int32) *lruEntry { return &l.slab[uint32(i)/lruChunk][uint32(i)%lruChunk] }

// add returns true if the key was absent (or expired) and has now been
// recorded; false if it is a live duplicate.
func (l *lruTTL) add(k dedupKey, nowMS int64) bool {
	if i, ok := l.items[k]; ok {
		ent := l.at(i)
		fresh := ent.expMS <= nowMS
		if fresh {
			ent.expMS = nowMS + l.ttlMS
		}
		if l.head != i {
			l.unlink(i)
			l.pushFront(i)
		}
		return fresh
	}
	for len(l.items) >= l.cap {
		l.evict(nowMS)
	}
	l.insert(k, nowMS+l.ttlMS)
	return true
}

// insert records an absent key as the most recent entry, in a vacated slot
// when there is one.
func (l *lruTTL) insert(k dedupKey, expMS int64) {
	i := l.free
	if i != noEntry {
		l.free = l.at(i).next
	} else {
		if int(l.used) == len(l.slab)*lruChunk {
			l.slab = append(l.slab, make([]lruEntry, lruChunk))
		}
		i = l.used
		l.used++
	}
	ent := l.at(i)
	ent.key, ent.expMS = k, expMS
	l.pushFront(i)
	l.items[k] = i
}

// evict removes entries to make room for one insertion: dead (expired)
// entries first — wherever they sit in the recency order — and only when
// none exist the genuinely least-recently-used live entry. Evicting the
// plain LRU tail would drop live dedup state while retaining entries that
// can never suppress anything again.
func (l *lruTTL) evict(nowMS int64) {
	if nowMS >= l.minExpMS {
		// Something may have expired since the last sweep: walk from the
		// cold end, drop every dead entry, and record the next bound. The
		// walk is O(n), but it either frees at least one slot (paid for by
		// the entries removed, amortized) or proves nothing can expire
		// before the new minExpMS, disarming itself until then.
		min := int64(math.MaxInt64)
		removed := 0
		for i := l.tail; i != noEntry; {
			ent := l.at(i)
			prev := ent.prev
			if ent.expMS <= nowMS {
				l.remove(i)
				removed++
			} else if ent.expMS < min {
				min = ent.expMS
			}
			i = prev
		}
		if min == math.MaxInt64 {
			// The sweep removed every entry: there is no survivor to bound
			// the next expiry, and storing the sentinel would disarm the
			// sweep forever (stream time never reaches it). Zero re-arms
			// it; the next capacity sweep recomputes a real bound.
			min = 0
		}
		l.minExpMS = min
		if removed > 0 {
			return
		}
	}
	// Every entry is live: fall back to true LRU.
	l.remove(l.tail)
}

// remove drops entry i and puts its slot on the free list.
func (l *lruTTL) remove(i int32) {
	l.unlink(i)
	ent := l.at(i)
	delete(l.items, ent.key)
	ent.next, l.free = l.free, i
}

// unlink takes entry i out of the recency list.
func (l *lruTTL) unlink(i int32) {
	ent := l.at(i)
	if ent.prev != noEntry {
		l.at(ent.prev).next = ent.next
	} else {
		l.head = ent.next
	}
	if ent.next != noEntry {
		l.at(ent.next).prev = ent.prev
	} else {
		l.tail = ent.prev
	}
}

// pushFront links the unlinked entry i in as the most recent.
func (l *lruTTL) pushFront(i int32) {
	ent := l.at(i)
	ent.prev, ent.next = noEntry, l.head
	if l.head != noEntry {
		l.at(l.head).prev = i
	} else {
		l.tail = i
	}
	l.head = i
}
