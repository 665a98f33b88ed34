package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"motifstream/internal/graph"
)

// benchStream is a benchmark workload's stream: rate events a second, the
// given content share and event count, and the benchmark's fixed users,
// burst and popularity parameters.
func benchStream(rate, content float64, events int, seed int64) StreamConfig {
	return StreamConfig{
		Users: 20_000, Events: events, Rate: rate,
		BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: 60 * time.Second,
		ContentFraction: content, ZipfS: 1.35, Seed: seed,
	}
}

// edgesDigest is the SHA-256 of the edges' graph.AppendEdge encodings,
// concatenated in order.
func edgesDigest(edges []graph.Edge) string {
	h := sha256.New()
	var b []byte
	for _, e := range edges {
		b = graph.AppendEdge(b[:0], e)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func presetStream(t *testing.T, name string) StreamConfig {
	t.Helper()
	s, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	return s.Stream
}

// TestGeneratorGolden pins the generators' output byte for byte: the
// benchmark's three stream shapes at two seeds, the small and medium
// presets' streams and the benchmark's follow graph. A change to the
// generators that keeps their draws must keep these digests; one that
// changes the draws changes every number measured on these inputs.
func TestGeneratorGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// rand.Zipf draws through math.Exp and math.Log, whose results may
		// differ in the last bit on other architectures.
		t.Skipf("digests are pinned on amd64; GOARCH is %s", runtime.GOARCH)
	}
	cases := []struct {
		name string
		gen  func() []graph.Edge
		want string
	}{
		// The benchmark's workloads at 18 s; networked's stream is steady's.
		{"steady-stream-seed7", func() []graph.Edge { return GenEventStream(benchStream(400, 0.25, 218_000, 7)) }, "75e40a221353312d957bf3bf8aa4b14d8a3701d963fcc1043b8299956548cad5"},
		{"steady-stream-seed11", func() []graph.Edge { return GenEventStream(benchStream(400, 0.25, 218_000, 11)) }, "1091b55443c8e780e8772fba706f31c1cd262e9905081beb21c4c51792969d97"},
		{"quiet-stream-seed7", func() []graph.Edge { return GenEventStream(benchStream(400, 0.95, 714_000, 7)) }, "e3201a13493c4ae4f69d2a83df7ca793b7348f1d3f27ad97f39b45def478d175"},
		{"quiet-stream-seed11", func() []graph.Edge { return GenEventStream(benchStream(400, 0.95, 714_000, 11)) }, "b0bdd52b15fec5d80c0c796f51da51490870c0aec3d90ac6af52b14b7140ccb7"},
		{"multiquery-stream-seed7", func() []graph.Edge { return GenEventStream(benchStream(50, 0.25, 29_000, 7)) }, "838b1c29ba926a2b6c3b601ff886089f6fee6994075d9574612558c4159cd427"},
		{"multiquery-stream-seed11", func() []graph.Edge { return GenEventStream(benchStream(50, 0.25, 29_000, 11)) }, "eb6ecf0b66862e736a026c88a0bfb1905e64545a43cfee5fb0ece31f1ac16c7f"},
		{"small-preset-stream", func() []graph.Edge { return GenEventStream(presetStream(t, "small")) }, "9ccba9eacc20c15076a3651e0bbb59497c1d822b71566a0624091db8f0a48258"},
		{"medium-preset-stream", func() []graph.Edge { return GenEventStream(presetStream(t, "medium")) }, "ea51db6fe4d49964a4f125800e3ff8d8c360b661968cd102a1c5b713b7670624"},
		{"benchmark-graph", func() []graph.Edge {
			return GenFollowGraph(GraphConfig{Users: 20_000, AvgFollows: 30, ZipfS: 1.35, Seed: 1})
		}, "47dd07db7b7bb4cbca57f029ca20597f747ee52e6b218b536d2638abd7b58a02"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := edgesDigest(c.gen()); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
