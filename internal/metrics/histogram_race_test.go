package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramObserveDuringSnapshot races writers against concurrent
// Snapshot calls — the pattern the cluster hot path actually runs, where
// Stats() snapshots histograms while ingest threads keep observing.
// Under -race this proves the locking covers both directions; the
// consistency asserts prove each snapshot is an atomic view (a torn copy
// would show Count disagreeing with the bucket sum it was taken with).
func TestHistogramObserveDuringSnapshot(t *testing.T) {
	h := NewHistogram()
	const writers, perWriter = 4, 5_000
	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				h.Observe(time.Duration(1+(i*perWriter+j)%1000) * time.Millisecond)
			}
		}(i)
	}
	go func() { wg.Wait(); done.Store(true) }()
	var prev uint64
	for snaps := 0; !done.Load(); snaps++ {
		s := h.Snapshot()
		if s.Count < prev {
			t.Fatalf("Count went backwards: %d after %d", s.Count, prev)
		}
		prev = s.Count
		if s.Count > 0 {
			if s.Min > s.Max {
				t.Fatalf("torn snapshot: min %v > max %v", s.Min, s.Max)
			}
			if s.P50 > s.P99 || s.P99 > s.Max {
				t.Fatalf("torn snapshot: p50 %v p99 %v max %v", s.P50, s.P99, s.Max)
			}
		}
		if snaps%64 == 63 {
			time.Sleep(time.Millisecond)
		}
	}
	if s := h.Snapshot(); s.Count != writers*perWriter {
		t.Fatalf("final Count = %d, want %d", s.Count, writers*perWriter)
	}
}

// TestHistogramQuantileOneBucketBound pins the documented accuracy
// contract, not just a loose percentage: quantiles report bucket upper
// bounds, so for any workload the reported quantile must be >= the exact
// order statistic and <= one bucket factor (histBase) above it, clamped
// to the true max. The loose uniform-workload check elsewhere would not
// catch a regression that, say, reported lower bounds (silent
// under-estimation) — this one does.
func TestHistogramQuantileOneBucketBound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram()
		n := 500 + r.Intn(2_000)
		vals := make([]float64, n)
		for i := range vals {
			// Log-uniform over 10µs..10s: exercises ~90 of the 160 buckets.
			ns := 1e4 * math.Pow(1e6, r.Float64())
			vals[i] = ns
			h.Observe(time.Duration(ns))
		}
		sort.Float64s(vals)
		s := h.Snapshot()
		for _, q := range []struct {
			p   float64
			got time.Duration
		}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
			// Snapshot targets the ceil(p*n)-th observation (1-based).
			exact := vals[int(math.Ceil(q.p*float64(n)))-1]
			got := float64(q.got)
			if got < exact && q.got != s.Max {
				t.Fatalf("trial %d p%v: reported %v below exact order statistic %v ns",
					trial, q.p, q.got, time.Duration(exact))
			}
			// Upper bound: one log bucket above the exact value (plus the
			// duration truncation to whole nanoseconds).
			if got > exact*histBase+1 {
				t.Fatalf("trial %d p%v: reported %v, more than one bucket above exact %v ns",
					trial, q.p, q.got, time.Duration(exact))
			}
		}
	}
}

// TestHistogramQuantileFewSamples pins the ceil rank where it matters most,
// a histogram of a few samples: of {1ms, 10ms, 100ms}, p50 is the second
// observation and p90 and p99 the third. The floor rank reads p50 at the
// minimum and p99 at the median.
func TestHistogramQuantileFewSamples(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.P50 < 10*time.Millisecond || float64(s.P50) > float64(10*time.Millisecond)*histBase {
		t.Fatalf("p50 = %v, want 10ms within one bucket", s.P50)
	}
	if s.P90 != 100*time.Millisecond || s.P99 != 100*time.Millisecond {
		t.Fatalf("p90 = %v, p99 = %v, want the maximum 100ms", s.P90, s.P99)
	}
}
