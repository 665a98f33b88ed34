package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"motifstream/internal/racetest"
)

// TestHopDelayDeterministic: the same seed yields the same delay for every
// offset, in whatever order and however often the offsets are drawn;
// different seeds (the two hops) and different offsets draw independently,
// and across offsets the draws follow the model. The pinned draws are
// TestFaultEquivalenceOracle's two models at Seed 7 (the delivery hop draws
// with Seed+1), as every earlier keying of the generator gave them: a change
// to the keying changes delivered latencies, and fails here first.
func TestHopDelayDeterministic(t *testing.T) {
	ingest := newHop(LognormalFromQuantiles(3*time.Second, 7*time.Second), 7)
	deliver := newHop(LognormalFromQuantiles(4*time.Second, 8*time.Second), 8)
	for _, pin := range []struct {
		off             uint64
		ingest, deliver time.Duration
	}{
		{0, 2474688663, 4824596497},
		{1, 1501694203, 8626471193},
		{599, 2104171602, 4227817606},
		{1 << 32, 2394511720, 4204948781},
	} {
		if got := ingest.delay(pin.off); got != pin.ingest {
			t.Errorf("ingest hop, offset %d: %d, pinned %d", pin.off, got, pin.ingest)
		}
		if got := deliver.delay(pin.off); got != pin.deliver {
			t.Errorf("delivery hop, offset %d: %d, pinned %d", pin.off, got, pin.deliver)
		}
	}

	m := LognormalFromQuantiles(7*time.Second, 15*time.Second)
	h, other := newHop(m, 99), newHop(m, 100)
	const n = 20_000
	forward := make([]time.Duration, n)
	for off := range forward {
		forward[off] = h.delay(uint64(off))
	}
	secs := make([]float64, n)
	for off := n - 1; off >= 0; off-- {
		again := h.delay(uint64(off))
		if again != forward[off] {
			t.Fatalf("offset %d: %v on the second draw, %v on the first", off, again, forward[off])
		}
		if off > 0 && again == forward[off-1] {
			t.Fatalf("offsets %d and %d share a delay", off-1, off)
		}
		if again == other.delay(uint64(off)) {
			t.Fatalf("offset %d: seeds 99 and 100 share a delay", off)
		}
		secs[off] = again.Seconds()
	}
	sort.Float64s(secs)
	if median, p99 := secs[n/2], secs[n*99/100]; math.Abs(median-7) > 0.3 || math.Abs(p99-15) > 1.5 {
		t.Fatalf("median %.2fs p99 %.2fs, want ~7s and ~15s", median, p99)
	}
	if d := newHop(nil, 1).delay(5); d != 0 {
		t.Fatalf("a hop without a model drew %v", d)
	}
}

// TestHopDelayZeroAlloc: the delivery loop draws both hops' delays for every
// accepted event; a draw reseeds the hop's own generator and allocates
// nothing.
func TestHopDelayZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ingest := newHop(LognormalFromQuantiles(3*time.Second, 7*time.Second), 7)
	deliver := newHop(Fixed{D: time.Second}, 8)
	var off uint64
	var sum time.Duration
	if allocs := testing.AllocsPerRun(1000, func() {
		off++
		sum += ingest.delay(off) + deliver.delay(off)
	}); allocs != 0 {
		t.Fatalf("%.2f allocations a draw, want 0", allocs)
	}
	if sum <= 0 {
		t.Fatal("no delay drawn")
	}
}

func TestFixedDelay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if (Fixed{D: time.Minute}).Sample(r) != time.Minute {
		t.Fatal("Fixed should sample D")
	}
}

func TestLognormalFromQuantiles(t *testing.T) {
	// The paper's observation: median 7s, p99 15s.
	m := LognormalFromQuantiles(7*time.Second, 15*time.Second)
	r := rand.New(rand.NewSource(42))
	const n = 200_000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = m.Sample(r).Seconds()
	}
	sort.Float64s(samples)
	median := samples[n/2]
	p99 := samples[int(0.99*n)]
	if math.Abs(median-7) > 0.2 {
		t.Fatalf("median = %.2fs, want ~7s", median)
	}
	if math.Abs(p99-15) > 0.7 {
		t.Fatalf("p99 = %.2fs, want ~15s", p99)
	}
}

func TestLognormalFromQuantilesValidation(t *testing.T) {
	for _, bad := range [][2]time.Duration{
		{0, time.Second},
		{time.Second, time.Second},
		{2 * time.Second, time.Second},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("quantiles %v should panic", bad)
				}
			}()
			LognormalFromQuantiles(bad[0], bad[1])
		}()
	}
}

func BenchmarkHopDelay(b *testing.B) {
	h := newHop(LognormalFromQuantiles(7*time.Second, 15*time.Second), 1)
	for i := 0; i < b.N; i++ {
		h.delay(uint64(i))
	}
}
