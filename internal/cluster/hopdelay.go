package cluster

import "math/rand"

// hopRand returns the generator one event's simulated delay on one queue hop
// is drawn from, seeded by the hop's seed and the event's firehose offset
// alone — no shared sequence, no lock — so the delay is the same whichever
// replica offers the event, however often it is replayed and whichever
// process run draws it.
func hopRand(seed int64, offset uint64) *rand.Rand {
	s := splitmix64(uint64(seed) + offset*0x9e3779b97f4a7c15)
	// Start from the offset's own output, not its state: consecutive
	// offsets' states are one step apart and would share a sequence.
	s = splitmix64(s.Uint64())
	return rand.New(&s)
}

// splitmix64 is hopRand's rand.Source64: eight bytes of state, free to seed
// (math/rand's own source costs ~5 KB and 607 steps per seeding).
type splitmix64 uint64

func (s *splitmix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { *s = splitmix64(seed) }
