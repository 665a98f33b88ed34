// Package metrics provides the lightweight instrumentation used across the
// system: counters, gauges, and log-bucketed latency histograms with
// quantile snapshots. Experiment E2 reports the paper's median/p99
// end-to-end latency from these histograms.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// histBuckets is the number of log-spaced buckets. With base 1.15 and a
// 1µs floor this spans 1µs..~2.6h, plenty for both graph-query latencies
// (few ms) and end-to-end queue latencies (seconds).
const (
	histBuckets = 160
	histBase    = 1.15
	histFloorNS = 1e3 // 1µs
)

// Histogram records durations into logarithmic buckets. It is safe for
// concurrent use and never allocates on the record path.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	total  uint64
	sumNS  float64
	minNS  int64
	maxNS  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{minNS: math.MaxInt64}
}

func bucketFor(ns int64) int {
	if ns < int64(histFloorNS) {
		return 0
	}
	b := int(math.Log(float64(ns)/histFloorNS) / math.Log(histBase))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpperNS returns the upper bound (ns) of bucket b; quantiles report
// this bound, so they over- rather than under-estimate.
func bucketUpperNS(b int) float64 {
	return histFloorNS * math.Pow(histBase, float64(b+1))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := bucketFor(ns)
	h.mu.Lock()
	h.counts[b]++
	h.total++
	h.sumNS += float64(ns)
	if ns < h.minNS {
		h.minNS = ns
	}
	if ns > h.maxNS {
		h.maxNS = ns
	}
	h.mu.Unlock()
}

// Snapshot is a consistent point-in-time view of a histogram.
type Snapshot struct {
	Count uint64
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// Snapshot computes quantiles from the current buckets.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	counts := h.counts
	total := h.total
	sum := h.sumNS
	minNS, maxNS := h.minNS, h.maxNS
	h.mu.Unlock()

	var s Snapshot
	s.Count = total
	if total == 0 {
		return s
	}
	s.Min = time.Duration(minNS)
	s.Max = time.Duration(maxNS)
	s.Mean = time.Duration(sum / float64(total))
	// The p-quantile is the ceil(p*n)-th observation (1-based): the floor
	// rank would read one observation low, the minimum for p50 of three.
	q := func(p float64) time.Duration {
		target := uint64(math.Ceil(p * float64(total)))
		var cum uint64
		for b := 0; b < histBuckets; b++ {
			cum += counts[b]
			if cum >= target {
				up := time.Duration(bucketUpperNS(b))
				if up > s.Max && s.Max > 0 {
					return s.Max
				}
				return up
			}
		}
		return s.Max
	}
	s.P50 = q(0.50)
	s.P90 = q(0.90)
	s.P99 = q(0.99)
	s.P999 = q(0.999)
	return s
}

// String renders the snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v max=%v mean=%v",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean)
}
