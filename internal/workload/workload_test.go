package workload

import (
	"reflect"
	"testing"
	"time"

	"motifstream/internal/graph"
)

func TestGenFollowGraphShape(t *testing.T) {
	cfg := GraphConfig{Users: 2_000, AvgFollows: 20, ZipfS: 1.35, Seed: 1}
	edges := GenFollowGraph(cfg)
	if len(edges) == 0 {
		t.Fatal("no edges generated")
	}
	// Mean out-degree near the configured average (degree jitter is
	// [avg/2, 3*avg/2], mean avg; rejection of dups pulls it down a bit).
	mean := float64(len(edges)) / float64(cfg.Users)
	if mean < float64(cfg.AvgFollows)*0.5 || mean > float64(cfg.AvgFollows)*1.5 {
		t.Fatalf("mean out-degree %.1f far from %d", mean, cfg.AvgFollows)
	}
	for _, e := range edges {
		if e.Src == e.Dst {
			t.Fatal("self-loop generated")
		}
		if e.Type != graph.Follow {
			t.Fatal("non-follow static edge")
		}
		if int(e.Src) >= cfg.Users || int(e.Dst) >= cfg.Users {
			t.Fatal("vertex outside ID space")
		}
	}
	// No duplicate (src,dst) pairs.
	seen := make(map[[2]graph.VertexID]bool, len(edges))
	for _, e := range edges {
		k := [2]graph.VertexID{e.Src, e.Dst}
		if seen[k] {
			t.Fatalf("duplicate edge %v", k)
		}
		seen[k] = true
	}
}

func TestGenFollowGraphHeavyTail(t *testing.T) {
	edges := GenFollowGraph(GraphConfig{Users: 5_000, AvgFollows: 20, ZipfS: 1.35, Seed: 1})
	st := graph.ComputeDegreeStats(graph.InDegrees(edges))
	// Heavy tail: the max in-degree dwarfs the median, and inequality is
	// high — the properties of the real Twitter follow graph that drive
	// detection cost.
	if st.Max < st.P50*20 {
		t.Fatalf("tail too light: max=%d p50=%d", st.Max, st.P50)
	}
	if st.Gini < 0.5 {
		t.Fatalf("gini = %.2f, want heavy-tailed (>0.5)", st.Gini)
	}
}

func TestGenFollowGraphDeterministic(t *testing.T) {
	cfg := GraphConfig{Users: 500, AvgFollows: 10, ZipfS: 1.35, Seed: 7}
	a := GenFollowGraph(cfg)
	b := GenFollowGraph(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different graphs")
	}
	cfg.Seed = 8
	c := GenFollowGraph(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seed, identical graphs")
	}
}

func TestGenFollowGraphDegenerate(t *testing.T) {
	if GenFollowGraph(GraphConfig{Users: 0, AvgFollows: 5}) != nil {
		t.Fatal("0 users should generate nothing")
	}
	if GenFollowGraph(GraphConfig{Users: 1, AvgFollows: 5}) != nil {
		t.Fatal("1 user cannot follow anyone")
	}
	if GenFollowGraph(GraphConfig{Users: 100, AvgFollows: 0}) != nil {
		t.Fatal("0 follows should generate nothing")
	}
	// ZipfS <= 1 falls back to the default rather than panicking.
	if len(GenFollowGraph(GraphConfig{Users: 100, AvgFollows: 5, ZipfS: 0.5, Seed: 1})) == 0 {
		t.Fatal("bad ZipfS should be defaulted, not fatal")
	}
}

func TestGenEventStreamOrderingAndBounds(t *testing.T) {
	cfg := DefaultStreamConfig()
	cfg.Events = 20_000
	edges := GenEventStream(cfg)
	if len(edges) != cfg.Events {
		t.Fatalf("generated %d events, want %d", len(edges), cfg.Events)
	}
	var prev int64
	for i, e := range edges {
		if e.TS < prev {
			t.Fatalf("event %d out of order: %d < %d", i, e.TS, prev)
		}
		prev = e.TS
		if e.Src == e.Dst {
			t.Fatal("self-action generated")
		}
		if int(e.Src) >= cfg.Users {
			t.Fatal("actor outside user space")
		}
		switch e.Type {
		case graph.Follow:
			if int(e.Dst) >= cfg.Users {
				t.Fatal("follow target outside user space")
			}
		case graph.Retweet, graph.Favorite:
			if int(e.Dst) < cfg.Users {
				t.Fatal("content target inside user space")
			}
		}
	}
}

func TestGenEventStreamRate(t *testing.T) {
	cfg := DefaultStreamConfig()
	cfg.Events = 50_000
	cfg.Rate = 10_000
	edges := GenEventStream(cfg)
	span := time.Duration(edges[len(edges)-1].TS-edges[0].TS) * time.Millisecond
	achieved := float64(cfg.Events) / span.Seconds()
	if achieved < cfg.Rate*0.7 || achieved > cfg.Rate*1.4 {
		t.Fatalf("achieved rate %.0f/s, want ~%.0f/s", achieved, cfg.Rate)
	}
}

func TestGenEventStreamBurstsCreateMotifSignal(t *testing.T) {
	// With bursts on, many (target, time-window) pairs see >= 3 distinct
	// actors — the motif precondition. Content events give the cleanest
	// discriminator: background content events each target a fresh tweet
	// (never >= 2 actors), while content bursts concentrate actors on a
	// shared tweet within the window.
	base := StreamConfig{
		Users: 5_000, Events: 30_000, Rate: 30,
		BurstMeanSize: 12, BurstWindow: 5 * time.Minute,
		ContentFraction: 1.0,
		ZipfS:           1.35, Seed: 3,
	}
	windowMS := base.BurstWindow.Milliseconds()
	count3 := func(burstFraction float64) int {
		cfg := base
		cfg.BurstFraction = burstFraction
		type bucketKey struct {
			target graph.VertexID
			bucket int64
		}
		actors := map[bucketKey]map[graph.VertexID]bool{}
		for _, e := range GenEventStream(cfg) {
			if int(e.Dst) < cfg.Users {
				continue // only tweet targets
			}
			k := bucketKey{e.Dst, e.TS / windowMS}
			m := actors[k]
			if m == nil {
				m = map[graph.VertexID]bool{}
				actors[k] = m
			}
			m[e.Src] = true
		}
		n := 0
		for _, m := range actors {
			if len(m) >= 3 {
				n++
			}
		}
		return n
	}
	withBursts := count3(0.5)
	noBursts := count3(0)
	if withBursts < 50 || withBursts < (noBursts+1)*10 {
		t.Fatalf("content bursts should create windowed >=3-actor tweets: with=%d without=%d",
			withBursts, noBursts)
	}
}

func TestGenEventStreamContentFraction(t *testing.T) {
	cfg := DefaultStreamConfig()
	cfg.Events = 30_000
	cfg.ContentFraction = 0.5
	content := 0
	for _, e := range GenEventStream(cfg) {
		if e.Type != graph.Follow {
			content++
		}
	}
	frac := float64(content) / float64(cfg.Events)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("content fraction %.2f far from 0.5", frac)
	}
}

func TestGenEventStreamDeterministic(t *testing.T) {
	cfg := DefaultStreamConfig()
	cfg.Events = 5_000
	if !reflect.DeepEqual(GenEventStream(cfg), GenEventStream(cfg)) {
		t.Fatal("same config, different streams")
	}
}

func TestGenEventStreamDegenerate(t *testing.T) {
	if GenEventStream(StreamConfig{Users: 0, Events: 10}) != nil {
		t.Fatal("0 users should generate nothing")
	}
	if GenEventStream(StreamConfig{Users: 100, Events: 0}) != nil {
		t.Fatal("0 events should generate nothing")
	}
}

func TestScenarios(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) != 3 {
		t.Fatalf("want 3 presets, got %d", len(scenarios))
	}
	names := map[string]bool{}
	for _, s := range scenarios {
		names[s.Name] = true
		if s.Graph.Users != s.Stream.Users {
			t.Fatalf("scenario %q: graph users %d != stream users %d",
				s.Name, s.Graph.Users, s.Stream.Users)
		}
	}
	for _, want := range []string{"small", "medium", "large"} {
		if !names[want] {
			t.Fatalf("missing scenario %q", want)
		}
	}
	if _, ok := ScenarioByName("small"); !ok {
		t.Fatal("ScenarioByName(small) not found")
	}
	if _, ok := ScenarioByName("nope"); ok {
		t.Fatal("ScenarioByName(nope) should fail")
	}
}
