package baseline

import (
	"testing"
	"time"

	"motifstream/internal/graph"
)

func fig1Static() []graph.Edge {
	return []graph.Edge{
		{Src: 1, Dst: 10, TS: 0}, {Src: 2, Dst: 10, TS: 0},
		{Src: 2, Dst: 11, TS: 0}, {Src: 3, Dst: 11, TS: 0},
	}
}

func TestPollingDetectsFigure1(t *testing.T) {
	rec := NewPollingRecommender(PollingConfig{
		Period: time.Minute, K: 2, Window: 10 * time.Minute,
	}, fig1Static())
	if rec.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d", rec.NumUsers())
	}
	t0 := int64(1_000_000)
	rec.Ingest(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	rec.Ingest(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 10_000})

	if rec.PollDue(t0 + 10_000) {
		// lastPollMS starts at 0, so this is vacuously due; run the poll
		// at the due time to start the cycle.
	}
	results := rec.Poll(t0 + 60_000)
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	r := results[0]
	if r.Candidate.User != 2 || r.Candidate.Item != 99 {
		t.Fatalf("candidate = %+v", r.Candidate)
	}
	// The motif completed at t0+10000; polled at t0+60000 → 50s latency.
	if r.DetectionLatency != 50*time.Second {
		t.Fatalf("latency = %v, want 50s", r.DetectionLatency)
	}
	if len(r.Candidate.Via) != 2 {
		t.Fatalf("via = %v", r.Candidate.Via)
	}
}

func TestPollingSuppressesSelfAndKnown(t *testing.T) {
	static := append(fig1Static(), graph.Edge{Src: 2, Dst: 99, TS: 0}) // A2 already follows 99
	rec := NewPollingRecommender(PollingConfig{Period: time.Minute, K: 2, Window: 10 * time.Minute}, static)
	t0 := int64(1_000_000)
	rec.Ingest(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	rec.Ingest(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1})
	if results := rec.Poll(t0 + 30_000); len(results) != 0 {
		t.Fatalf("known follow should be suppressed: %v", results)
	}
}

func TestPollingWindowExpiry(t *testing.T) {
	rec := NewPollingRecommender(PollingConfig{Period: time.Minute, K: 2, Window: time.Minute}, fig1Static())
	t0 := int64(1_000_000)
	rec.Ingest(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	rec.Ingest(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1_000})
	// Poll far in the future: both actions expired.
	if results := rec.Poll(t0 + 600_000); len(results) != 0 {
		t.Fatalf("expired actions still detected: %v", results)
	}
}

func TestPollingMotifSpansPollPeriods(t *testing.T) {
	// First supporting edge before a poll, second after it: the motif
	// must still be found on the second poll (the window rescan).
	rec := NewPollingRecommender(PollingConfig{Period: time.Minute, K: 2, Window: 10 * time.Minute}, fig1Static())
	t0 := int64(1_000_000)
	rec.Ingest(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	if results := rec.Poll(t0 + 30_000); len(results) != 0 {
		t.Fatalf("half-motif detected: %v", results)
	}
	rec.Ingest(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 40_000})
	results := rec.Poll(t0 + 90_000)
	if len(results) != 1 {
		t.Fatalf("straddling motif missed: %v", results)
	}
}

func TestPollDue(t *testing.T) {
	rec := NewPollingRecommender(PollingConfig{Period: time.Minute, K: 2, Window: 10 * time.Minute}, fig1Static())
	rec.Poll(1_000_000)
	if rec.PollDue(1_000_000 + 30_000) {
		t.Fatal("poll due after 30s with a 60s period")
	}
	if !rec.PollDue(1_000_000 + 60_000) {
		t.Fatal("poll not due after a full period")
	}
}

func TestPollingDefaults(t *testing.T) {
	rec := NewPollingRecommender(PollingConfig{}, fig1Static())
	cfg := rec.Config()
	if cfg.Period <= 0 || cfg.K < 2 || cfg.Window <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestPollingAgreesWithStreaming is E4's correctness premise: both designs
// find the same (user, item) recommendations; they differ in latency and
// cost, not results.
func TestPollingAgreesWithStreaming(t *testing.T) {
	cfg := PollingConfig{Period: time.Minute, K: 2, Window: 10 * time.Minute}
	static := fig1Static()
	t0 := int64(1_000_000)
	dynamic := []graph.Edge{
		{Src: 10, Dst: 99, Type: graph.Follow, TS: t0},
		{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 5_000},
		{Src: 10, Dst: 55, Type: graph.Follow, TS: t0 + 6_000},
		{Src: 11, Dst: 55, Type: graph.Follow, TS: t0 + 7_000},
	}

	streaming := StreamingEquivalent(cfg, static, dynamic)
	streamSet := map[[2]graph.VertexID]bool{}
	for _, c := range streaming {
		streamSet[[2]graph.VertexID{c.User, c.Item}] = true
	}

	rec := NewPollingRecommender(cfg, static)
	for _, e := range dynamic {
		rec.Ingest(e)
	}
	pollSet := map[[2]graph.VertexID]bool{}
	for _, r := range rec.Poll(t0 + 30_000) {
		pollSet[[2]graph.VertexID{r.Candidate.User, r.Candidate.Item}] = true
	}

	if len(streamSet) == 0 {
		t.Fatal("streaming found nothing; test is vacuous")
	}
	if len(streamSet) != len(pollSet) {
		t.Fatalf("streaming %v vs polling %v", streamSet, pollSet)
	}
	for k := range streamSet {
		if !pollSet[k] {
			t.Fatalf("polling missed %v", k)
		}
	}
}

func TestTwoHopNoFalseNegatives(t *testing.T) {
	static := fig1Static()
	// Add B→C edges so two-hop sets are non-trivial: 10→99, 11→98.
	static = append(static,
		graph.Edge{Src: 10, Dst: 99}, graph.Edge{Src: 11, Dst: 98})
	th := BuildTwoHop(TwoHopConfig{FPRate: 0.01, TrackExact: true}, static)
	// User 1 follows 10; 10 follows 99 → 99 is in 1's two-hop set.
	if !th.MayContain(1, 99) || !th.ContainsExact(1, 99) {
		t.Fatal("two-hop member missing")
	}
	// User 2 follows both 10 and 11 → both 99 and 98 reachable.
	if !th.MayContain(2, 99) || !th.MayContain(2, 98) {
		t.Fatal("user 2 two-hop set wrong")
	}
	// User 1 does not follow 11, so 98 must not be exact for 1.
	if th.ContainsExact(1, 98) {
		t.Fatal("exact set contains non-member")
	}
	if th.NumUsers() == 0 || th.MemoryBytes() == 0 {
		t.Fatal("accounting empty")
	}
}

func TestTwoHopExactAgreesWithBloom(t *testing.T) {
	// Every exact member must be claimed by the Bloom side too.
	var static []graph.Edge
	for a := graph.VertexID(0); a < 50; a++ {
		static = append(static, graph.Edge{Src: a, Dst: 50 + a%10})
	}
	for b := graph.VertexID(50); b < 60; b++ {
		static = append(static, graph.Edge{Src: b, Dst: 100 + b})
	}
	th := BuildTwoHop(TwoHopConfig{FPRate: 0.01, TrackExact: true}, static)
	for a := graph.VertexID(0); a < 50; a++ {
		c := graph.VertexID(100 + 50 + a%10)
		if th.ContainsExact(a, c) && !th.MayContain(a, c) {
			t.Fatalf("false negative for user %d item %d", a, c)
		}
	}
}

func TestMemoryModelShape(t *testing.T) {
	m := ModelAtScale(2e8, 100, 0.01, 1e9)
	// The paper's "rough calculation": two-hop memory exceeds streaming
	// memory by orders of magnitude at Twitter scale.
	if m.TwoHopBytes < m.StreamingBytes*10 {
		t.Fatalf("two-hop %g should dwarf streaming %g", m.TwoHopBytes, m.StreamingBytes)
	}
	// Quadratic in degree: doubling degree roughly quadruples two-hop
	// memory but only doubles S.
	m2 := ModelAtScale(2e8, 200, 0.01, 1e9)
	ratio := m2.TwoHopBytes / m.TwoHopBytes
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("doubling degree scaled two-hop by %.2f, want ~4", ratio)
	}
	// Bad FP rates are defaulted.
	if bad := ModelAtScale(10, 5, 0, 100); bad.FPRate != 0.01 {
		t.Fatal("fp default not applied")
	}
	if TwitterScaleModel().TwoHopBytes <= 0 {
		t.Fatal("Twitter-scale model empty")
	}
}

func TestTwoHopDefaultFPRate(t *testing.T) {
	static := append(fig1Static(), graph.Edge{Src: 10, Dst: 99})
	th := BuildTwoHop(TwoHopConfig{}, static)
	if th.NumUsers() == 0 {
		t.Fatal("default FP rate build failed")
	}
	// Without TrackExact, ContainsExact is always false.
	if th.ContainsExact(1, 99) {
		t.Fatal("exact tracking should be off by default")
	}
}
