package queue

import (
	"math"
	"math/rand"
	"time"
)

// DelayModel samples the simulated propagation delay one message incurs
// crossing a queue hop. A Topic never calls it: whoever owns the model draws
// one sample per hop per message and passes it to Publish as the carried
// delay (the cluster's hub tier does).
type DelayModel interface {
	// Sample returns one delay draw using r.
	Sample(r *rand.Rand) time.Duration
}

// Fixed delays every message by exactly D.
type Fixed struct {
	D time.Duration
}

// Sample returns D.
func (f Fixed) Sample(*rand.Rand) time.Duration { return f.D }

// Lognormal delays messages with a lognormal distribution, the standard
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
		panic("queue: need 0 < median < p99")
	}
	const z99 = 2.3263478740408408 // Phi^-1(0.99)
	mu := math.Log(median.Seconds())
	sigma := (math.Log(p99.Seconds()) - mu) / z99
	return Lognormal{Mu: mu, Sigma: sigma}
}
