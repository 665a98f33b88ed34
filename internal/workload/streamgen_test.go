package workload

import (
	"math/rand"
	"testing"
	"time"

	"motifstream/internal/graph"
)

// referenceEventStream is GenEventStream as it was before the live bursts
// were kept in endMS order: every event copies every live burst that has
// neither expired nor run out into a fresh prefix of the slice, O(live) an
// event. The optimized loop must make the same draws in the same order,
// so the two agree edge for edge on every config.
func referenceEventStream(cfg StreamConfig) []graph.Edge {
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
		// Retire expired bursts.
		live := active[:0]
		for _, b := range active {
			if b.endMS > nowMS && b.remaining > 0 {
				live = append(live, b)
			}
		}
		active = live

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

func TestGenEventStreamMatchesReference(t *testing.T) {
	base := StreamConfig{
		Users: 1_000, Events: 20_000, Rate: 1_000,
		BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: 2 * time.Second,
		ContentFraction: 0.25, ZipfS: 1.35, Seed: 5,
	}
	// Configs at the edges of the retire logic, each one edit of base.
	for _, c := range []struct {
		name string
		edit func(*StreamConfig)
	}{
		{"base", func(*StreamConfig) {}},
		// Under 1 ms a burst's endMS is its spawn time: it expires at the
		// next event, however many events share that millisecond.
		{"sub-ms-window", func(c *StreamConfig) { c.BurstWindow = 500 * time.Microsecond }},
		{"sub-ms-window-fast", func(c *StreamConfig) { c.BurstWindow, c.Rate = 500*time.Microsecond, 50_000 }},
		// Every event joins a burst, and every burst is exhausted by the
		// event that spawns it or by one more.
		{"all-bursts-size-1", func(c *StreamConfig) { c.BurstFraction, c.BurstMeanSize = 1, 1 }},
		{"users-2", func(c *StreamConfig) { c.Users = 2 }},
		{"content-0", func(c *StreamConfig) { c.ContentFraction = 0 }},
		{"content-1", func(c *StreamConfig) { c.ContentFraction = 1 }},
		// Nothing expires: bursts leave only by running out.
		{"window-longer-than-stream", func(c *StreamConfig) { c.BurstWindow = time.Hour }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.edit(&cfg)
			got, want := GenEventStream(cfg), referenceEventStream(cfg)
			if len(got) != cfg.Events {
				t.Fatalf("%d edges, want %d", len(got), cfg.Events)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("edge %d differs from the reference (%d and %d edges)", i, len(got), len(want))
			}
		})
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []graph.Edge) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// FuzzGenEventStream compares the generator with its reference on fuzzed
// configs of up to 20 000 events. Rates stay finite and positive, so
// stream time never runs backward.
func FuzzGenEventStream(f *testing.F) {
	f.Add(int64(7), uint16(20_000), uint16(5_000), uint32(400_000), uint8(89), uint8(12), uint32(60_000_000), uint8(242))
	f.Add(int64(1), uint16(2), uint16(20_000), uint32(10_000_000), uint8(255), uint8(1), uint32(500), uint8(0))
	f.Add(int64(3), uint16(500), uint16(20_000), uint32(1_000), uint8(128), uint8(0), uint32(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, users, events uint16, rateMilli uint32, burst, meanSize uint8, windowUS uint32, content uint8) {
		cfg := StreamConfig{
			Users:           int(users),
			Events:          min(int(events), 20_000),
			Rate:            float64(rateMilli) / 1000,
			BurstFraction:   float64(burst) / 255,
			BurstMeanSize:   int(meanSize),
			BurstWindow:     time.Duration(windowUS) * time.Microsecond,
			ContentFraction: float64(content) / 255,
			ZipfS:           1.35,
			Seed:            seed,
		}
		got, want := GenEventStream(cfg), referenceEventStream(cfg)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("config %+v: edge %d differs from the reference", cfg, i)
		}
	})
}

// streamSink keeps the benchmarked streams live so the calls stay.
var streamSink []graph.Edge

// BenchmarkGenEventStream times generation at the benchmark's quiet shape
// (about 1 000 live bursts on average) and the large preset (about
// 18 000). The re-filtering reference costs O(live) on every event; what is
// left of that here is one O(live) move per exhausted burst.
func BenchmarkGenEventStream(b *testing.B) {
	large, _ := ScenarioByName("large")
	for _, c := range []struct {
		name string
		cfg  StreamConfig
	}{
		{"quiet", benchStream(400, 0.95, 714_000, 7)},
		{"large", large.Stream},
	} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				streamSink = GenEventStream(c.cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.cfg.Events), "ns/event")
		})
	}
}
