package workload

import (
	"math/rand"
	"time"

	"motifstream/internal/graph"
)

// StreamConfig parametrizes the dynamic edge-stream generator.
type StreamConfig struct {
	// Users is the account ID space (must match the graph config).
	Users int
	// Events is the number of dynamic edges to generate.
	Events int
	// Rate is the mean event rate per second of stream time. The paper's
	// design target is 10^4 insertions/second.
	Rate float64
	// StartMS is the stream start time (Unix ms); zero selects a fixed
	// epoch so runs are reproducible.
	StartMS int64
	// BurstFraction is the fraction of events that belong to temporally
	// correlated bursts toward a shared hot target — the phenomenon that
	// creates diamond motifs. The rest are background noise.
	BurstFraction float64
	// BurstMeanSize is the mean number of events per burst.
	BurstMeanSize int
	// BurstWindow is the time span a burst's events spread over; bursts
	// whose window has passed are retired. Should be on the order of the
	// detection window τ for motifs to complete.
	BurstWindow time.Duration
	// ContentFraction is the fraction of events that are retweets or
	// favorites of tweet vertices rather than follows; tweet IDs occupy
	// [Users, Users+Events).
	ContentFraction float64
	// ZipfS shapes background target popularity.
	ZipfS float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultStreamConfig returns a laptop-scale bursty stream matched to
// DefaultGraphConfig: 200k events at 10k events/s.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Users:           20_000,
		Events:          200_000,
		Rate:            10_000,
		BurstFraction:   0.35,
		BurstMeanSize:   12,
		BurstWindow:     10 * time.Minute,
		ContentFraction: 0.25,
		ZipfS:           1.35,
		Seed:            7,
	}
}

// defaultEpochMS is 2014-09-01T00:00:00Z, the month the paper's system
// entered production.
const defaultEpochMS = int64(1409529600000)

type burst struct {
	target    graph.VertexID
	edgeType  graph.EdgeType
	remaining int
	endMS     int64
}

// GenEventStream generates Events dynamic edges in timestamp order.
// Interarrival times are exponential with mean 1/Rate. A BurstFraction of
// events join active bursts: several distinct B's acting on the same C
// within BurstWindow, exactly the temporally-correlated pattern §1 of the
// paper identifies as the recommendation signal.
//
// It costs O(Events) plus an O(live) move each time a burst is exhausted.
// That rests on one invariant: the live bursts are kept in endMS order.
// Each is appended with endMS = now + BurstWindow, now never decreases, and
// neither retiring nor removing a burst reorders the rest, so the expired
// bursts are always a prefix.
func GenEventStream(cfg StreamConfig) []graph.Edge {
	if cfg.Users <= 1 || cfg.Events <= 0 {
		return nil
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 10_000
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.35
	}
	if cfg.BurstMeanSize <= 0 {
		cfg.BurstMeanSize = 12
	}
	if cfg.BurstWindow <= 0 {
		cfg.BurstWindow = 10 * time.Minute
	}
	startMS := cfg.StartMS
	if startMS == 0 {
		startMS = defaultEpochMS
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	z := rand.NewZipf(r, cfg.ZipfS, 1, uint64(cfg.Users-1))

	edges := make([]graph.Edge, 0, cfg.Events)
	var active []burst
	// Sub-millisecond interarrival gaps are common at the design rate of
	// 10^4 events/s, so time is accumulated as float milliseconds and
	// truncated per event; truncating the increments instead would stall
	// the clock entirely.
	elapsedMS := 0.0
	meanGapMS := 1000.0 / cfg.Rate
	nextTweetID := graph.VertexID(cfg.Users)

	for i := 0; i < cfg.Events; i++ {
		elapsedMS += r.ExpFloat64() * meanGapMS
		nowMS := startMS + int64(elapsedMS) // timestamp ties allowed
		// Retire expired bursts: a prefix, by the endMS order.
		expired := 0
		for expired < len(active) && active[expired].endMS <= nowMS {
			expired++
		}
		active = active[expired:]

		var e graph.Edge
		if r.Float64() < cfg.BurstFraction {
			if len(active) == 0 || r.Float64() < 0.15 {
				// Spawn a new burst. Content bursts act on a fresh tweet;
				// follow bursts on a Zipf-popular account.
				nb := burst{
					remaining: 1 + r.Intn(2*cfg.BurstMeanSize),
					endMS:     nowMS + cfg.BurstWindow.Milliseconds(),
				}
				if r.Float64() < cfg.ContentFraction {
					nb.target = nextTweetID
					nextTweetID++
					if r.Intn(2) == 0 {
						nb.edgeType = graph.Retweet
					} else {
						nb.edgeType = graph.Favorite
					}
				} else {
					nb.target = graph.VertexID(z.Uint64())
					nb.edgeType = graph.Follow
				}
				active = append(active, nb)
			}
			bi := r.Intn(len(active))
			active[bi].remaining--
			e = graph.Edge{
				Src:  randUserExcept(r, cfg.Users, active[bi].target),
				Dst:  active[bi].target,
				Type: active[bi].edgeType,
				TS:   nowMS,
			}
			if active[bi].remaining == 0 {
				// Exhausted: removed in place, keeping the endMS order.
				active = append(active[:bi], active[bi+1:]...)
			}
		} else {
			// Background event: mostly follows of Zipf targets.
			dst := graph.VertexID(z.Uint64())
			typ := graph.Follow
			if r.Float64() < cfg.ContentFraction {
				dst = nextTweetID
				nextTweetID++
				typ = graph.Retweet
			}
			e = graph.Edge{
				Src:  randUserExcept(r, cfg.Users, dst),
				Dst:  dst,
				Type: typ,
				TS:   nowMS,
			}
		}
		edges = append(edges, e)
	}
	return edges
}

// randUserExcept draws a uniform user ID different from not.
func randUserExcept(r *rand.Rand, users int, not graph.VertexID) graph.VertexID {
	for {
		u := graph.VertexID(r.Intn(users))
		if u != not {
			return u
		}
	}
}

// Scenario bundles a matched graph and stream configuration.
type Scenario struct {
	Name   string
	Graph  GraphConfig
	Stream StreamConfig
}

// Scenarios returns the named presets used by cmd/magicrecs and the
// experiment harness.
func Scenarios() []Scenario {
	small := Scenario{
		Name:  "small",
		Graph: GraphConfig{Users: 5_000, AvgFollows: 20, ZipfS: 1.35, Seed: 1},
		Stream: StreamConfig{
			Users: 5_000, Events: 50_000, Rate: 10_000,
			BurstFraction: 0.35, BurstMeanSize: 10, BurstWindow: 10 * time.Minute,
			ContentFraction: 0.25, ZipfS: 1.35, Seed: 7,
		},
	}
	medium := Scenario{
		Name:   "medium",
		Graph:  DefaultGraphConfig(),
		Stream: DefaultStreamConfig(),
	}
	large := Scenario{
		Name:  "large",
		Graph: GraphConfig{Users: 100_000, AvgFollows: 40, ZipfS: 1.35, Seed: 1},
		Stream: StreamConfig{
			Users: 100_000, Events: 1_000_000, Rate: 10_000,
			BurstFraction: 0.35, BurstMeanSize: 15, BurstWindow: 10 * time.Minute,
			ContentFraction: 0.25, ZipfS: 1.35, Seed: 7,
		},
	}
	return []Scenario{small, medium, large}
}

// ScenarioByName returns the named preset, or false.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
