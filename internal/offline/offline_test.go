package offline

import (
	"testing"
	"time"

	"motifstream/internal/graph"
)

const dayMS = int64(24 * time.Hour / time.Millisecond)

func follow(a, b graph.VertexID, ts int64) graph.Edge {
	return graph.Edge{Src: a, Dst: b, Type: graph.Follow, TS: ts}
}

func TestDefaultScorerMonotone(t *testing.T) {
	base := EdgeFeatures{FollowAgeMS: 30 * dayMS}
	s0 := DefaultScorer(base)

	engaged := base
	engaged.Interactions = 5
	engaged.LastInteractionMS = dayMS
	if DefaultScorer(engaged) <= s0 {
		t.Fatal("engagement should raise the score")
	}

	recent := engaged
	recent.LastInteractionMS = dayMS / 24
	if DefaultScorer(recent) <= DefaultScorer(engaged) {
		t.Fatal("fresher engagement should score higher")
	}

	reciprocal := base
	reciprocal.Reciprocal = true
	if DefaultScorer(reciprocal) <= s0 {
		t.Fatal("reciprocity should raise the score")
	}

	fresh := base
	fresh.FollowAgeMS = 0
	if DefaultScorer(fresh) <= s0 {
		t.Fatal("fresher follow should score higher")
	}
}

func TestBuildScoresAndCaps(t *testing.T) {
	now := 100 * dayMS
	// A=1 follows 10, 20, 30. It engages heavily with 20 only.
	follows := []graph.Edge{
		follow(1, 10, now-50*dayMS),
		follow(1, 20, now-50*dayMS),
		follow(1, 30, now-50*dayMS),
	}
	var interactions []Interaction
	for i := int64(0); i < 10; i++ {
		interactions = append(interactions, Interaction{A: 1, B: 20, TS: now - i*dayMS})
	}
	p := NewPipeline(Config{MaxInfluencers: 1})
	snap, stats := p.Build(follows, interactions, now)
	if stats.InputEdges != 3 || stats.OutputEdges != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if snap.Followers(20) == nil {
		t.Fatal("the engaged-with influencer should survive the cap")
	}
	if snap.Followers(10) != nil || snap.Followers(30) != nil {
		t.Fatal("unengaged influencers should be capped away")
	}
	if stats.CappedOut != 2 {
		t.Fatalf("CappedOut = %d, want 2", stats.CappedOut)
	}
	if stats.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestBuildReciprocity(t *testing.T) {
	now := 100 * dayMS
	// 1↔2 reciprocal; 1→3 one-way. Cap to 1 influencer: reciprocity wins.
	follows := []graph.Edge{
		follow(1, 2, now-50*dayMS),
		follow(2, 1, now-50*dayMS),
		follow(1, 3, now-50*dayMS),
	}
	p := NewPipeline(Config{MaxInfluencers: 1})
	snap, _ := p.Build(follows, nil, now)
	if snap.Followers(2) == nil {
		t.Fatal("reciprocal edge should survive")
	}
	if snap.Followers(3) != nil {
		t.Fatal("one-way edge should be capped away")
	}
}
