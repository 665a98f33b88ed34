package delivery

import (
	"testing"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

const hourMS = int64(time.Hour / time.Millisecond)

// alwaysAwake turns waking-hours suppression off.
func alwaysAwake(opts *Options) {
	opts.SleepStartHour, opts.SleepEndHour = 1, 1 // equal = disabled
}

// userInZone returns the smallest user whose derived UTC offset is z hours.
func userInZone(t *testing.T, z int) graph.VertexID {
	t.Helper()
	for u := graph.VertexID(1); u < 1<<16; u++ {
		if timezoneOf(u) == z {
			return u
		}
	}
	t.Fatalf("no user in zone %d", z)
	return 0
}

func cand(user, item graph.VertexID, ts int64) motif.Candidate {
	return motif.Candidate{
		User: user, Item: item, DetectedAtMS: ts,
		Trigger: graph.Edge{Src: 1, Dst: item, TS: ts},
	}
}

func TestDeliverBasic(t *testing.T) {
	opts := Options{}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	d, note := p.Offer(cand(1, 2, 1_000), 0)
	if d != Delivered || note == nil {
		t.Fatalf("decision = %v, note = %v", d, note)
	}
	if note.Candidate.User != 1 {
		t.Fatal("wrong candidate in notification")
	}
	st := p.Stats()
	if st.Raw != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DeliveryRate() != 1 {
		t.Fatalf("rate = %f", st.DeliveryRate())
	}
}

func TestDedup(t *testing.T) {
	opts := Options{DedupTTL: time.Hour}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	p.Offer(cand(1, 2, 1_000), 0)
	d, note := p.Offer(cand(1, 2, 2_000), 0)
	if d != DroppedDuplicate || note != nil {
		t.Fatalf("duplicate not dropped: %v", d)
	}
	// Different item is not a duplicate.
	if d, _ := p.Offer(cand(1, 3, 3_000), 0); d != Delivered {
		t.Fatalf("different item dropped: %v", d)
	}
	// Different user is not a duplicate.
	if d, _ := p.Offer(cand(2, 2, 4_000), 0); d != Delivered {
		t.Fatalf("different user dropped: %v", d)
	}
}

func TestDedupExpiry(t *testing.T) {
	opts := Options{DedupTTL: time.Minute}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	p.Offer(cand(1, 2, 0), 0)
	// Within TTL: duplicate.
	if d, _ := p.Offer(cand(1, 2, 30_000), 0); d != DroppedDuplicate {
		t.Fatalf("within TTL: %v", d)
	}
	// After TTL: allowed again.
	if d, _ := p.Offer(cand(1, 2, 61_000), 0); d != Delivered {
		t.Fatalf("after TTL: %v", d)
	}
}

func TestFatigueBudget(t *testing.T) {
	opts := Options{MaxPerUserPerDay: 2}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	ts := int64(0)
	for i := 0; i < 2; i++ {
		ts += 1_000
		if d, _ := p.Offer(cand(1, graph.VertexID(10+i), ts), 0); d != Delivered {
			t.Fatalf("push %d: %v", i, d)
		}
	}
	if d, _ := p.Offer(cand(1, 99, ts+1_000), 0); d != DroppedFatigue {
		t.Fatalf("over budget: %v", d)
	}
	// Another user has their own budget.
	if d, _ := p.Offer(cand(2, 99, ts+2_000), 0); d != Delivered {
		t.Fatalf("other user: %v", d)
	}
	// Next stream-day the budget resets.
	if d, _ := p.Offer(cand(1, 100, 24*hourMS+1_000), 0); d != Delivered {
		t.Fatalf("next day: %v", d)
	}
}

func TestSleepSuppression(t *testing.T) {
	opts := Options{
		SleepStartHour: 23,
		SleepEndHour:   8,
	}
	p := NewPipeline(opts)
	u := userInZone(t, 0)
	// 03:00 UTC: asleep (inside 23..8 wrap window).
	if d, _ := p.Offer(cand(u, 2, 3*hourMS), 0); d != DroppedAsleep {
		t.Fatalf("03:00 = %v, want asleep", d)
	}
	// 12:00 UTC: awake.
	if d, _ := p.Offer(cand(u, 3, 12*hourMS), 0); d != Delivered {
		t.Fatalf("12:00 = %v, want delivered", d)
	}
	// 23:30 UTC: asleep again.
	if d, _ := p.Offer(cand(u, 4, 23*hourMS+1800_000), 0); d != DroppedAsleep {
		t.Fatalf("23:30 = %v, want asleep", d)
	}
}

func TestSleepTimezoneShifts(t *testing.T) {
	// User at UTC+9: 03:00 UTC is noon local — awake.
	p := NewPipeline(Options{
		SleepStartHour: 23,
		SleepEndHour:   8,
	})
	if d, _ := p.Offer(cand(userInZone(t, 9), 2, 3*hourMS), 0); d != Delivered {
		t.Fatalf("UTC+9 at 03:00 UTC = %v, want delivered", d)
	}
	// Negative offsets also work: UTC-4 at 12:00 UTC is 08:00 local,
	// which is the boundary (SleepEndHour excluded) — awake.
	if d, _ := p.Offer(cand(userInZone(t, -4), 2, 12*hourMS), 0); d != Delivered {
		t.Fatalf("UTC-4 at 12:00 UTC = %v, want delivered (8am boundary)", d)
	}
}

func TestNonWrappingSleepWindow(t *testing.T) {
	// Window 2..5 (does not wrap midnight).
	opts := Options{
		SleepStartHour: 2,
		SleepEndHour:   5,
	}
	p := NewPipeline(opts)
	u := userInZone(t, 0)
	if d, _ := p.Offer(cand(u, 2, 3*hourMS), 0); d != DroppedAsleep {
		t.Fatal("03:00 should be asleep in the 2..5 window")
	}
	if d, _ := p.Offer(cand(u, 3, 6*hourMS), 0); d != Delivered {
		t.Fatal("06:00 should be awake in the 2..5 window")
	}
}

func TestLatencyIncludesQueueDelay(t *testing.T) {
	opts := Options{}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	delay := 7 * time.Second
	_, note := p.Offer(cand(1, 2, 10_000), delay)
	if note == nil {
		t.Fatal("not delivered")
	}
	if note.Latency != delay {
		t.Fatalf("latency = %v, want %v", note.Latency, delay)
	}
	if note.DeliveredAtMS != 10_000+delay.Milliseconds() {
		t.Fatalf("DeliveredAtMS = %d", note.DeliveredAtMS)
	}
}

func TestFunnelAccounting(t *testing.T) {
	opts := Options{MaxPerUserPerDay: 1, DedupTTL: time.Hour}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	p.Offer(cand(1, 2, 1_000), 0) // delivered
	p.Offer(cand(1, 2, 2_000), 0) // duplicate
	p.Offer(cand(1, 3, 3_000), 0) // fatigue
	st := p.Stats()
	if st.Raw != 3 || st.Delivered != 1 || st.DroppedDuplicate != 1 || st.DroppedFatigue != 1 {
		t.Fatalf("funnel = %+v", st)
	}
	if got := st.DeliveryRate(); got < 0.33 || got > 0.34 {
		t.Fatalf("rate = %f", got)
	}
	if (FunnelStats{}).DeliveryRate() != 0 {
		t.Fatal("empty funnel rate should be 0")
	}
}

func TestDedupLRUCapacityEviction(t *testing.T) {
	opts := Options{DedupCapacity: 2, DedupTTL: time.Hour, MaxPerUserPerDay: 1 << 30}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	p.Offer(cand(1, 1, 1_000), 0)
	p.Offer(cand(2, 2, 2_000), 0) // LRU full: {1,1},{2,2}
	p.Offer(cand(3, 3, 3_000), 0) // evicts (1,1)
	// (1,1) was evicted, so it is deliverable again despite the TTL.
	if d, _ := p.Offer(cand(1, 1, 4_000), 0); d != Delivered {
		t.Fatalf("evicted key still deduped: %v", d)
	}
}

func TestSleepDisabledSentinel(t *testing.T) {
	// The sentinel pair disables suppression outright — including at
	// 03:00, deep inside the default 23..8 window.
	opts := Options{
		SleepStartHour: SleepDisabled,
		SleepEndHour:   SleepDisabled,
	}
	p := NewPipeline(opts)
	u := userInZone(t, 0)
	if d, _ := p.Offer(cand(u, 2, 3*hourMS), 0); d != Delivered {
		t.Fatalf("03:00 with SleepDisabled = %v, want delivered", d)
	}
	// One-sided sentinel still disables (it cannot mean a real hour).
	opts.SleepStartHour, opts.SleepEndHour = SleepDisabled, 8
	p2 := NewPipeline(opts)
	if d, _ := p2.Offer(cand(u, 2, 3*hourMS), 0); d != Delivered {
		t.Fatalf("03:00 with one-sided sentinel = %v, want delivered", d)
	}
}

func TestZeroSleepPairSelectsDefaultWindow(t *testing.T) {
	// The unset (0, 0) pair keeps selecting the 23..8 default: only the
	// sentinel expresses "no sleep window".
	p := NewPipeline(Options{})
	if d, _ := p.Offer(cand(userInZone(t, 0), 2, 3*hourMS), 0); d != DroppedAsleep {
		t.Fatalf("03:00 with zero options = %v, want asleep (default window)", d)
	}
}

func TestDedupLRUEvictsExpiredBeforeLive(t *testing.T) {
	// An expired entry buried mid-list (a live-duplicate hit refreshes
	// recency but keeps the original expiry, so recency order is not
	// expiry order) must be evicted before the live LRU tail.
	opts := Options{DedupCapacity: 3, DedupTTL: time.Minute, MaxPerUserPerDay: 1 << 30}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	p.Offer(cand(1, 1, 0), 0)      // expires at 60s
	p.Offer(cand(2, 2, 30_000), 0) // expires at 90s
	p.Offer(cand(1, 1, 31_000), 0) // live dup: front of the list, expiry still 60s
	p.Offer(cand(3, 3, 32_000), 0) // full; recency front→back: 3, 1, 2
	// 62s: (1,1) is dead mid-list, the tail (2,2) is live. The insert
	// must evict the dead entry, not the tail.
	p.Offer(cand(4, 4, 62_000), 0)
	if d, _ := p.Offer(cand(2, 2, 63_000), 0); d != DroppedDuplicate {
		t.Fatalf("live tail (2,2) was evicted while a dead entry sat mid-list: %v", d)
	}
	if d, _ := p.Offer(cand(3, 3, 63_500), 0); d != DroppedDuplicate {
		t.Fatalf("live entry (3,3) was evicted: %v", d)
	}
}

func TestDedupLRUCapacityPressureKeepsLiveEntries(t *testing.T) {
	// Under sustained capacity pressure the sweep evicts the one dead
	// entry first, and only the next insertion falls back to true LRU.
	opts := Options{DedupCapacity: 4, DedupTTL: time.Minute, MaxPerUserPerDay: 1 << 30}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	p.Offer(cand(1, 1, 0), 0)      // expires at 60s
	p.Offer(cand(2, 2, 30_000), 0) // expires at 90s — the true live tail
	p.Offer(cand(3, 3, 31_000), 0)
	p.Offer(cand(1, 1, 32_000), 0) // refresh recency; expiry stays 60s
	p.Offer(cand(4, 4, 33_000), 0) // full; front→back: 4, 1, 3, 2
	// 61s: first insert sweeps out the dead (1,1); the second finds all
	// entries live and evicts the LRU tail (2,2).
	p.Offer(cand(5, 5, 61_000), 0)
	p.Offer(cand(6, 6, 62_000), 0)
	for _, want := range []struct {
		u graph.VertexID
		d Decision
	}{
		{3, DroppedDuplicate}, // live, retained
		{4, DroppedDuplicate},
		{5, DroppedDuplicate},
		{6, DroppedDuplicate},
		{1, Delivered}, // dead, swept first
		{2, Delivered}, // true LRU tail, evicted second
	} {
		if d, _ := p.Offer(cand(want.u, want.u, 63_000), 0); d != want.d {
			t.Fatalf("key (%d,%d): got %v, want %v", want.u, want.u, d, want.d)
		}
	}
}

func TestDedupLRUSweepSurvivesFullExpiry(t *testing.T) {
	// Regression: a sweep that removes EVERY entry has no survivor to
	// bound the next expiry; storing the scan's MaxInt64 sentinel would
	// disarm the expired-first sweep for the pipeline's lifetime, and
	// later capacity pressure would silently regress to evicting live
	// LRU tails over dead entries.
	opts := Options{DedupCapacity: 3, DedupTTL: time.Minute, MaxPerUserPerDay: 1 << 30}
	alwaysAwake(&opts)
	p := NewPipeline(opts)
	p.Offer(cand(1, 1, 0), 0)
	p.Offer(cand(2, 2, 1_000), 0)
	p.Offer(cand(3, 3, 2_000), 0)
	// 70s: all three are dead; this insert's sweep empties the list.
	p.Offer(cand(4, 4, 70_000), 0) // expires at 130s
	// Refill, burying (4,4) mid-list via a live-dup recency refresh.
	p.Offer(cand(5, 5, 75_000), 0)  // expires at 135s
	p.Offer(cand(6, 6, 76_000), 0)  // expires at 136s
	p.Offer(cand(4, 4, 100_000), 0) // live dup: front of list, expiry still 130s
	// 131s: (4,4) is dead mid-list, the tail (5,5) is live. The sweep
	// must still be armed after the earlier full-expiry sweep.
	p.Offer(cand(7, 7, 131_000), 0)
	if d, _ := p.Offer(cand(5, 5, 132_000), 0); d != DroppedDuplicate {
		t.Fatalf("live tail (5,5) evicted: the expired-first sweep disarmed itself (%v)", d)
	}
	if d, _ := p.Offer(cand(6, 6, 132_500), 0); d != DroppedDuplicate {
		t.Fatalf("live entry (6,6) evicted: %v", d)
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Delivered:        "delivered",
		DroppedDuplicate: "dropped-duplicate",
		DroppedAsleep:    "dropped-asleep",
		DroppedFatigue:   "dropped-fatigue",
		Decision(99):     "unknown",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
}

func TestDefaultTimezoneSpread(t *testing.T) {
	zones := map[int]bool{}
	for u := graph.VertexID(0); u < 1_000; u++ {
		z := timezoneOf(u)
		if z < -12 || z > 11 {
			t.Fatalf("timezone %d out of range", z)
		}
		zones[z] = true
	}
	if len(zones) < 12 {
		t.Fatalf("default timezones poorly spread: only %d distinct", len(zones))
	}
}
