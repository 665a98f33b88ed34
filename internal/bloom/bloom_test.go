package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1_000, 0.01)
	for i := uint64(0); i < 1_000; i++ {
		f.Add(i * 7)
	}
	for i := uint64(0); i < 1_000; i++ {
		if !f.Contains(i * 7) {
			t.Fatalf("false negative for %d", i*7)
		}
	}
	if f.Count() != 1_000 {
		t.Fatalf("Count = %d", f.Count())
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 10_000
	const target = 0.01
	f := New(n, target)
	r := rand.New(rand.NewSource(1))
	members := make(map[uint64]bool, n)
	for len(members) < n {
		v := r.Uint64() >> 1
		if !members[v] {
			members[v] = true
			f.Add(v)
		}
	}
	fp := 0
	const probes = 50_000
	for i := 0; i < probes; i++ {
		v := r.Uint64()>>1 | 1<<62 // disjoint-ish range; skip true members
		if members[v] {
			continue
		}
		if f.Contains(v) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > target*3 {
		t.Fatalf("observed FP rate %.4f far above target %.4f", rate, target)
	}
	est := f.EstimatedFPRate()
	if est <= 0 || est > target*3 {
		t.Fatalf("estimated FP rate %.4f implausible", est)
	}
}

func TestSizingFormula(t *testing.T) {
	m, k := Sizing(1_000, 0.01)
	// Standard result: ~9.59 bits/entry at 1%, k ~ 7.
	bitsPer := float64(m) / 1_000
	if bitsPer < 9 || bitsPer > 10.5 {
		t.Fatalf("bits/entry = %.2f, want ~9.6", bitsPer)
	}
	if k < 6 || k > 8 {
		t.Fatalf("k = %d, want ~7", k)
	}
	// Tighter FP costs more bits.
	m2, _ := Sizing(1_000, 0.001)
	if m2 <= m {
		t.Fatal("lower FP target should need more bits")
	}
	// Minimum size floor.
	if m3, _ := Sizing(1, 0.5); m3 < 64 {
		t.Fatalf("m = %d below 64-bit floor", m3)
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with fpRate=%f should panic", bad)
				}
			}()
			New(100, bad)
		}()
	}
	// Zero items is coerced, not panicked.
	if f := New(0, 0.01); f == nil {
		t.Fatal("New(0, ...) should still construct")
	}
}

func TestMemoryBytes(t *testing.T) {
	f := New(1_000, 0.01)
	want := (f.m + 63) / 64 * 8
	if f.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", f.MemoryBytes(), want)
	}
}

func TestEmptyFilter(t *testing.T) {
	f := New(100, 0.01)
	if f.Contains(42) {
		t.Fatal("empty filter claims membership")
	}
	if f.EstimatedFPRate() != 0 {
		t.Fatal("empty filter FP estimate should be 0")
	}
}

// Property: anything added is always found (no false negatives, ever).
func TestNoFalseNegativesQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		fl := New(uint64(len(vals))+1, 0.05)
		for _, v := range vals {
			fl.Add(v)
		}
		for _, v := range vals {
			if !fl.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
