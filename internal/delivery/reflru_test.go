package delivery

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/racetest"
)

// refLRU is the dedup LRU the slab replaced — a container/list of boxed
// entries under a map of elements — kept as the model the slab is held to:
// the same add / evict / capture / install semantics, sharing no code with
// lruTTL.
type refLRU struct {
	cap      int
	ttlMS    int64
	ll       *list.List // front = most recent
	items    map[dedupKey]*list.Element
	minExpMS int64
}

type refEntry struct {
	key   dedupKey
	expMS int64
}

func newRefLRU(capacity int, ttl time.Duration) *refLRU {
	return &refLRU{cap: capacity, ttlMS: ttl.Milliseconds(), ll: list.New(), items: map[dedupKey]*list.Element{}}
}

func (l *refLRU) add(k dedupKey, nowMS int64) bool {
	if el, ok := l.items[k]; ok {
		ent := el.Value.(*refEntry)
		if ent.expMS > nowMS {
			l.ll.MoveToFront(el)
			return false
		}
		ent.expMS = nowMS + l.ttlMS
		l.ll.MoveToFront(el)
		return true
	}
	for l.ll.Len() >= l.cap {
		l.evict(nowMS)
	}
	l.items[k] = l.ll.PushFront(&refEntry{key: k, expMS: nowMS + l.ttlMS})
	return true
}

func (l *refLRU) evict(nowMS int64) {
	if nowMS >= l.minExpMS {
		min := int64(math.MaxInt64)
		removed := 0
		for el := l.ll.Back(); el != nil; {
			prev := el.Prev()
			if ent := el.Value.(*refEntry); ent.expMS <= nowMS {
				l.remove(el)
				removed++
			} else if ent.expMS < min {
				min = ent.expMS
			}
			el = prev
		}
		if min == math.MaxInt64 {
			min = 0
		}
		l.minExpMS = min
		if removed > 0 {
			return
		}
	}
	l.remove(l.ll.Back())
}

func (l *refLRU) remove(el *list.Element) {
	l.ll.Remove(el)
	delete(l.items, el.Value.(*refEntry).key)
}

// capture lists the entries oldest first, as Pipeline.captureState does.
func (l *refLRU) capture() []dedupSnap {
	out := make([]dedupSnap, 0, l.ll.Len())
	for el := l.ll.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*refEntry)
		out = append(out, dedupSnap{user: ent.key.user, item: ent.key.item, expMS: ent.expMS})
	}
	return out
}

// installRef is Pipeline.install's dedup half on the model: the newest
// entries win a capacity shrink, a repeated key keeps its newest entry.
func installRef(capacity int, ttl time.Duration, dedup []dedupSnap) *refLRU {
	l := newRefLRU(capacity, ttl)
	if len(dedup) > l.cap {
		dedup = dedup[len(dedup)-l.cap:]
	}
	for _, e := range dedup {
		k := dedupKey{user: e.user, item: e.item}
		if el, ok := l.items[k]; ok {
			l.remove(el)
		}
		l.items[k] = l.ll.PushFront(&refEntry{key: k, expMS: e.expMS})
	}
	return l
}

// TestSlabLRUMatchesListModel drives a pipeline whose only rule is dedup and
// the container/list model through random sequences — fresh pairs, repeats
// of recent and of old pairs, time steps that expire entries, capacity
// pressure, captures, and restores into pipelines of the same, a smaller and a
// larger capacity — and requires identical decisions, identical captures
// (content and recency order) and identical sweep bounds throughout.
func TestSlabLRUMatchesListModel(t *testing.T) {
	const ttl = time.Minute
	opts := func(capacity int) Options {
		return Options{
			DedupTTL: ttl, DedupCapacity: capacity, MaxPerUserPerDay: 1 << 30,
			SleepStartHour: SleepDisabled, SleepEndHour: SleepDisabled,
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := 2 + rng.Intn(2*lruChunk+500) // up to three slab chunks
			p, ref := NewPipeline(opts(capacity)), newRefLRU(capacity, ttl)
			now := int64(1_000_000)
			var recent []dedupKey
			decisions := map[Decision]int{}
			evictions, restores := 0, 0
			for step := 0; step < 15_000; step++ {
				switch r := rng.Intn(1000); {
				case r < 3:
					// Restore both from the capture, sometimes across a resize.
					dedup, fatigue := p.captureState()
					if !reflect.DeepEqual(dedup, ref.capture()) {
						t.Fatalf("step %d: captures differ before a restore", step)
					}
					switch rng.Intn(3) {
					case 1:
						capacity = max(2, capacity/2)
					case 2:
						capacity += rng.Intn(lruChunk)
					}
					p = NewPipeline(opts(capacity))
					p.install(dedup, fatigue)
					ref = installRef(capacity, ttl, dedup)
					restores++
				case r < 12:
					now += rng.Int63n(int64(2 * ttl / time.Millisecond)) // expires most or all
				case r < 400:
					now += rng.Int63n(50)
				}
				var k dedupKey
				switch r := rng.Intn(10); {
				case r < 5 || len(recent) == 0:
					k = dedupKey{user: graph.VertexID(rng.Intn(1 << 20)), item: graph.VertexID(rng.Intn(64))}
					recent = append(recent, k)
				case r < 8:
					k = recent[len(recent)-1-rng.Intn(min(len(recent), 32))] // probably live
				default:
					k = recent[rng.Intn(len(recent))] // probably expired or evicted
				}
				before := len(p.dedup.items)
				d, _ := p.Offer(motif.Candidate{User: k.user, Item: k.item, DetectedAtMS: now}, 0)
				want := DroppedDuplicate
				if ref.add(k, now) {
					want = Delivered
				}
				if d != want {
					t.Fatalf("step %d: pair %v at %d: slab says %v, list model %v", step, k, now, d, want)
				}
				decisions[d]++
				if d == Delivered && len(p.dedup.items) <= before && before == capacity {
					evictions++
				}
				if len(p.dedup.items) != ref.ll.Len() || p.dedup.minExpMS != ref.minExpMS {
					t.Fatalf("step %d: slab holds %d entries with sweep bound %d, list model %d with %d",
						step, len(p.dedup.items), p.dedup.minExpMS, ref.ll.Len(), ref.minExpMS)
				}
				if step%997 == 0 {
					if dedup, _ := p.captureState(); !reflect.DeepEqual(dedup, ref.capture()) {
						t.Fatalf("step %d: captures differ", step)
					}
				}
			}
			dedup, _ := p.captureState()
			if !reflect.DeepEqual(dedup, ref.capture()) {
				t.Fatal("final captures differ")
			}
			if decisions[Delivered] == 0 || decisions[DroppedDuplicate] == 0 || evictions == 0 || restores == 0 {
				t.Fatalf("vacuous run: decisions %v, %d evictions at capacity, %d restores", decisions, evictions, restores)
			}
			// The slab never grew past what its population needed.
			if got, most := len(p.dedup.slab), (capacity+lruChunk-1)/lruChunk; got > most {
				t.Fatalf("slab has %d chunks for a capacity of %d", got, capacity)
			}
		})
	}
}

// TestOfferAllocBudget is the funnel's allocation gate. A live duplicate — the
// fate of nearly every candidate — allocates nothing; a delivery into a warm
// slab (an expired pair offered again; a new pair taking an evicted one's
// slot at capacity) allocates a chunk of Notifications once every noteChunk
// deliveries and nothing else: no entry, no list element, no budget.
func TestOfferAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation gate: race instrumentation allocates; the non-race run enforces the budget")
	}
	const pairs = 4 * lruChunk
	p := NewPipeline(Options{
		DedupTTL: time.Minute, DedupCapacity: pairs, MaxPerUserPerDay: 1 << 30,
		SleepStartHour: SleepDisabled, SleepEndHour: SleepDisabled,
	})
	now, next := int64(1_000_000), 0
	offer := func(want Decision) func() {
		return func() {
			c := motif.Candidate{User: graph.VertexID(next % 512), Item: graph.VertexID(next), DetectedAtMS: now}
			next++
			if d, _ := p.Offer(c, 0); d != want {
				t.Fatalf("pair %d: %v, want %v", next-1, d, want)
			}
		}
	}
	for i := 0; i < pairs; i++ {
		offer(Delivered)()
	}
	next = 0
	if n := testing.AllocsPerRun(pairs-1, offer(DroppedDuplicate)); n != 0 {
		t.Fatalf("a live duplicate allocates %.2f; want 0", n)
	}
	now += 2 * time.Minute.Milliseconds()
	next = 0
	if n := allocsPer(pairs, offer(Delivered)); n > 0.01 {
		t.Fatalf("delivering an expired pair again allocates %.4f; want ≤ 0.01, a Notification chunk", n)
	} else {
		t.Logf("delivering an expired pair again: %.4f allocations", n)
	}
	// Full of live entries: each new pair evicts the least recent one.
	next = pairs
	if n := allocsPer(pairs, offer(Delivered)); n > 0.01 {
		t.Fatalf("delivering a new pair at capacity allocates %.4f; want ≤ 0.01, a Notification chunk", n)
	} else {
		t.Logf("delivering a new pair at capacity: %.4f allocations", n)
	}
	if got := len(p.dedup.slab); got != pairs/lruChunk {
		t.Fatalf("slab has %d chunks for %d entries", got, pairs)
	}
}

// allocsPer is testing.AllocsPerRun without its rounding down: the mean
// allocations of n calls of f, a fraction.
func allocsPer(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
