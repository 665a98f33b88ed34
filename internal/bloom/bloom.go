// Package bloom implements a standard Bloom filter. It exists to make the
// paper's rejected second baseline concrete: "keep track of each A's
// two-hop neighborhood; a rough calculation shows that this is impractical,
// even using approximate data structures such as Bloom filters" (§2).
// Experiment E4 materializes exactly that design at laptop scale and uses
// the analytical model in Sizing to extrapolate to Twitter scale.
package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Filter is a fixed-size Bloom filter with double hashing (Kirsch &
// Mitzenmacher): h_i(x) = h1(x) + i*h2(x). Not safe for concurrent writes.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of hash functions
	n    uint64 // items added
}

// New creates a filter sized for expectedItems at the target false-positive
// rate fpRate. Panics on non-positive expectedItems or out-of-range fpRate,
// which indicate programmer error.
func New(expectedItems uint64, fpRate float64) *Filter {
	if expectedItems == 0 {
		expectedItems = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		panic("bloom: fpRate must be in (0,1)")
	}
	m, k := Sizing(expectedItems, fpRate)
	return &Filter{
		bits: make([]uint64, (m+63)/64),
		m:    m,
		k:    k,
	}
}

// Sizing returns the optimal bit count m and hash count k for n items at
// false-positive rate p: m = -n ln p / (ln 2)^2, k = (m/n) ln 2.
func Sizing(n uint64, p float64) (m uint64, k uint32) {
	ln2 := math.Ln2
	mf := -float64(n) * math.Log(p) / (ln2 * ln2)
	m = uint64(math.Ceil(mf))
	if m < 64 {
		m = 64
	}
	kf := math.Ceil(mf / float64(n) * ln2)
	if kf < 1 {
		kf = 1
	}
	k = uint32(kf)
	return m, k
}

func hash2(x uint64) (uint64, uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	h := fnv.New64a()
	h.Write(buf[:])
	h1 := h.Sum64()
	// Derive an independent second hash by re-hashing with a salt byte.
	h.Write([]byte{0x9e})
	h2 := h.Sum64()
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

// Add inserts x.
func (f *Filter) Add(x uint64) {
	h1, h2 := hash2(x)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		f.bits[bit>>6] |= 1 << (bit & 63)
	}
	f.n++
}

// Contains reports whether x may be in the set. False positives occur at
// roughly the configured rate; false negatives never.
func (f *Filter) Contains(x uint64) bool {
	h1, h2 := hash2(x)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		if f.bits[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls.
func (f *Filter) Count() uint64 { return f.n }

// MemoryBytes returns the resident size of the bit array.
func (f *Filter) MemoryBytes() uint64 { return uint64(len(f.bits)) * 8 }

// EstimatedFPRate returns the expected false-positive probability given the
// current fill: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFPRate() float64 {
	if f.n == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.n) / float64(f.m)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}
