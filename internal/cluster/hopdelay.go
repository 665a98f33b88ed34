package cluster

import (
	"math"
	"math/rand"
	"time"
)

// The paper puts nearly all of MagicRecs' latency in message-queue
// propagation ("median 7s, p99 15s", the graph queries taking milliseconds);
// experiment E2 simulates it. An event's delay on each of the two queue hops
// — firehose to partition, partition to push gateway — is a pure function of
// the hop's seed and the event's firehose offset, so nothing upstream carries
// it: the hub's delivery loop derives both where it spends them, and the
// figure is the same whichever replica offered the event, however often it
// was replayed, over whichever transport and in whichever process run.

// DelayModel samples the simulated propagation delay one event incurs
// crossing a queue hop.
type DelayModel interface {
	// Sample returns one delay draw using r.
	Sample(r *rand.Rand) time.Duration
}

// Fixed delays every event by exactly D.
type Fixed struct {
	D time.Duration
}

// Sample returns D.
func (f Fixed) Sample(*rand.Rand) time.Duration { return f.D }

// Lognormal delays events with a lognormal distribution, the standard
// heavy-tailed model for queueing/propagation delay. Mu and Sigma are the
// parameters of the underlying normal.
type Lognormal struct {
	Mu    float64 // of log-seconds
	Sigma float64
}

// Sample draws exp(N(Mu, Sigma)) seconds.
func (l Lognormal) Sample(r *rand.Rand) time.Duration {
	x := math.Exp(l.Mu + l.Sigma*r.NormFloat64())
	return time.Duration(x * float64(time.Second))
}

// LognormalFromQuantiles builds a Lognormal whose median and 99th
// percentile match the given durations — the direct way to encode the
// paper's "median 7s, p99 15s" observation. Panics if the quantiles are
// not strictly increasing and positive.
func LognormalFromQuantiles(median, p99 time.Duration) Lognormal {
	if median <= 0 || p99 <= median {
		panic("cluster: need 0 < median < p99")
	}
	const z99 = 2.3263478740408408 // Phi^-1(0.99)
	mu := math.Log(median.Seconds())
	sigma := (math.Log(p99.Seconds()) - mu) / z99
	return Lognormal{Mu: mu, Sigma: sigma}
}

// hop draws one queue hop's delays. Its generator is reseeded for every
// draw from the hop's seed and the event's offset alone — no shared
// sequence, no lock — and is owned by one goroutine, so a draw allocates
// nothing.
type hop struct {
	model DelayModel
	seed  int64
	src   splitmix64
	r     *rand.Rand
}

func newHop(model DelayModel, seed int64) *hop {
	h := &hop{model: model, seed: seed}
	h.r = rand.New(&h.src)
	return h
}

// delay is the hop's delay for the event at the firehose offset; zero
// without a model.
func (h *hop) delay(offset uint64) time.Duration {
	if h.model == nil {
		return 0
	}
	// Start from the offset's own output, not its state: consecutive
	// offsets' states are one step apart and would share a sequence.
	s := splitmix64(uint64(h.seed) + offset*0x9e3779b97f4a7c15)
	h.src = splitmix64(s.Uint64())
	return h.model.Sample(h.r)
}

// splitmix64 is hop's rand.Source64: eight bytes of state, free to seed
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
