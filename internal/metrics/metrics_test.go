package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value should be 0")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1_000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8_000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Value = %d, want 7", g.Value())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != 5*time.Millisecond || s.Max != 5*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Quantiles report bucket upper bounds, clamped to max.
	if s.P50 > s.Max || s.P99 > s.Max {
		t.Fatalf("quantiles exceed max: %+v", s)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// 1000 observations uniform over 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	// Log bucketing with base 1.15 gives ~15% resolution; accept 20%.
	within := func(got time.Duration, want float64) bool {
		g := got.Seconds()
		return g > want*0.80 && g < want*1.25
	}
	if !within(s.P50, 0.5) {
		t.Errorf("P50 = %v, want ~500ms", s.P50)
	}
	if !within(s.P90, 0.9) {
		t.Errorf("P90 = %v, want ~900ms", s.P90)
	}
	if !within(s.P99, 0.99) {
		t.Errorf("P99 = %v, want ~990ms", s.P99)
	}
	if s.Mean < 400*time.Millisecond || s.Mean > 600*time.Millisecond {
		t.Errorf("Mean = %v, want ~500ms", s.Mean)
	}
}

func TestHistogramNegativeDurationClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0 {
		t.Fatalf("negative observation: %+v", s)
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Nanosecond) // below floor
	h.Observe(24 * time.Hour)  // beyond top bucket
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatal("observations lost")
	}
	if s.Max != 24*time.Hour {
		t.Fatalf("max = %v", s.Max)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1_000; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 4_000 {
		t.Fatalf("Count = %d, want 4000", s.Count)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	if s := h.Snapshot().String(); !strings.Contains(s, "n=1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("Counter(x) returned a different instance")
	}
	if r.Counter("y").Value() != 0 {
		t.Fatal("different names must be different counters")
	}
	h1 := r.Histogram("h")
	h1.Observe(time.Second)
	if r.Histogram("h").Snapshot().Count != 1 {
		t.Fatal("Histogram(h) returned a different instance")
	}
	g := r.Gauge("g")
	g.Set(3)
	if r.Gauge("g").Value() != 3 {
		t.Fatal("Gauge(g) returned a different instance")
	}
}

// TestCounterValueNeverCreates pins the read a caller by name relies on: a
// name the registry does not hold reads as absent, not as zero, and stays
// absent; a registered counter reads its count, zero included.
func TestCounterValueNeverCreates(t *testing.T) {
	r := NewRegistry()
	r.Counter("held")
	r.Histogram("hist")
	if v, ok := r.CounterValue("held"); !ok || v != 0 {
		t.Fatalf("CounterValue(held) = %d, %v; want 0, true", v, ok)
	}
	r.Counter("held").Add(3)
	if v, ok := r.CounterValue("held"); !ok || v != 3 {
		t.Fatalf("CounterValue(held) = %d, %v; want 3, true", v, ok)
	}
	for _, name := range []string{"misspelt", "hist", "misspelt"} {
		if v, ok := r.CounterValue(name); ok {
			t.Fatalf("CounterValue(%s) = %d, true: no counter has that name", name, v)
		}
	}
	if strings.Contains(r.Dump(), "misspelt") {
		t.Fatalf("CounterValue created a counter:\n%s", r.Dump())
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(2)
	r.Gauge("b.gauge").Set(-1)
	r.Histogram("c.hist").Observe(time.Millisecond)
	dump := r.Dump()
	for _, want := range []string{"counter a.count = 2", "gauge b.gauge = -1", "hist c.hist"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
	// Sorted output: counter line precedes gauge line.
	if strings.Index(dump, "counter") > strings.Index(dump, "gauge") {
		t.Error("Dump not sorted")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Counter("shared").Value() != 800 {
		t.Fatal("lost increments under concurrency")
	}
}

func TestBucketMonotonicity(t *testing.T) {
	// Bucket index must be non-decreasing in duration.
	prev := 0
	for ns := int64(1); ns < int64(time.Hour); ns *= 3 {
		b := bucketFor(ns)
		if b < prev {
			t.Fatalf("bucketFor(%d) = %d < previous %d", ns, b, prev)
		}
		prev = b
	}
	if bucketFor(int64(100*time.Hour)) != histBuckets-1 {
		t.Fatal("huge durations must clamp to the last bucket")
	}
}
