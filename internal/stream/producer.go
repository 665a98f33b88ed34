package stream

import (
	"time"

	"motifstream/internal/graph"
)

// Publisher accepts edges; *queue.Topic[graph.Edge] adapts to it via
// cluster publishing helpers, and tests use in-memory collectors.
type Publisher interface {
	// Publish delivers one edge with no pre-accumulated delay.
	Publish(e graph.Edge) error
}

// PublisherFunc adapts a function to the Publisher interface.
type PublisherFunc func(e graph.Edge) error

// Publish implements Publisher.
func (f PublisherFunc) Publish(e graph.Edge) error { return f(e) }

// Producer drains a Source into a Publisher, optionally throttled to a
// target event rate. It plays the firehose role at a controlled pace so
// throughput experiments can distinguish "the system keeps up" from "the
// system is the bottleneck".
type Producer struct {
	// Source yields the edges to publish. Required.
	Source Source
	// Rate is the target events/second; 0 publishes as fast as possible.
	Rate float64
	// Batch is how many events are published between pacing checks; 0
	// selects 128. Pacing per event would melt into timer overhead at the
	// paper's 10^4/s design target.
	Batch int
}

// ProduceStats reports a completed Run.
type ProduceStats struct {
	Events  int
	Elapsed time.Duration
}

// Run publishes every remaining source edge, sleeping as needed to hold
// the configured rate. It returns when the source is exhausted or the
// publisher fails.
func (p *Producer) Run(pub Publisher) (ProduceStats, error) {
	batch := p.Batch
	if batch <= 0 {
		batch = 128
	}
	start := time.Now()
	n := 0
	for {
		e, ok := p.Source.Next()
		if !ok {
			break
		}
		if err := pub.Publish(e); err != nil {
			return ProduceStats{Events: n, Elapsed: time.Since(start)}, err
		}
		n++
		if p.Rate > 0 && n%batch == 0 {
			// Sleep until the wall clock catches up with the pace.
			due := start.Add(time.Duration(float64(n) / p.Rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
	}
	return ProduceStats{Events: n, Elapsed: time.Since(start)}, nil
}
