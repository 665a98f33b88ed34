package cluster

import (
	"math"
	"sort"
	"testing"
	"time"

	"motifstream/internal/queue"
)

// TestHopDelayDeterministic: the same seed yields the same delay for every
// offset, in whatever order and however often the offsets are drawn;
// different seeds (the two hops) and different offsets draw independently,
// and across offsets the draws follow the model.
func TestHopDelayDeterministic(t *testing.T) {
	m := queue.LognormalFromQuantiles(7*time.Second, 15*time.Second)
	const n = 20_000
	forward := make([]time.Duration, n)
	for off := range forward {
		forward[off] = m.Sample(hopRand(99, uint64(off)))
	}
	secs := make([]float64, n)
	for off := n - 1; off >= 0; off-- {
		again := m.Sample(hopRand(99, uint64(off)))
		if again != forward[off] {
			t.Fatalf("offset %d: %v on the second draw, %v on the first", off, again, forward[off])
		}
		if off > 0 && again == forward[off-1] {
			t.Fatalf("offsets %d and %d share a delay", off-1, off)
		}
		if again == m.Sample(hopRand(100, uint64(off))) {
			t.Fatalf("offset %d: seeds 99 and 100 share a delay", off)
		}
		secs[off] = again.Seconds()
	}
	sort.Float64s(secs)
	if median, p99 := secs[n/2], secs[n*99/100]; math.Abs(median-7) > 0.3 || math.Abs(p99-15) > 1.5 {
		t.Fatalf("median %.2fs p99 %.2fs, want ~7s and ~15s", median, p99)
	}
}
