package motif

import (
	"testing"
	"time"

	"motifstream/internal/graph"
)

func TestTriangleClosureBasic(t *testing.T) {
	// Users 1 and 2 retweet tweet 500; then user 3 retweets it. Users 1
	// and 2 should be offered user 3 ("you both engaged with 500").
	ctx := newCtx(t, nil, false, time.Hour)
	p := NewTriangleClosure(10 * time.Minute)
	t0 := int64(1_000_000)
	apply(ctx, p, graph.Edge{Src: 1, Dst: 500, Type: graph.Retweet, TS: t0})
	apply(ctx, p, graph.Edge{Src: 2, Dst: 500, Type: graph.Retweet, TS: t0 + 1_000})
	got := apply(ctx, p, graph.Edge{Src: 3, Dst: 500, Type: graph.Retweet, TS: t0 + 2_000})
	if len(got) != 2 {
		t.Fatalf("candidates = %v, want co-actors 1 and 2", got)
	}
	users := map[graph.VertexID]bool{}
	for _, c := range got {
		users[c.User] = true
		if c.Item != 3 {
			t.Fatalf("recommended item = %d, want the actor 3", c.Item)
		}
		if c.Program != "triangle-closure" {
			t.Fatalf("program = %q", c.Program)
		}
		if c.Score <= 0 || c.Score > 1 {
			t.Fatalf("score = %f out of (0,1]", c.Score)
		}
		if len(c.Via) != 1 || c.Via[0] != 500 {
			t.Fatalf("via = %v, want the shared item", c.Via)
		}
	}
	if !users[1] || !users[2] {
		t.Fatalf("recipients = %v", users)
	}
}

func TestTriangleClosureFreshnessScoring(t *testing.T) {
	ctx := newCtx(t, nil, false, time.Hour)
	p := NewTriangleClosure(10 * time.Minute)
	t0 := int64(1_000_000)
	apply(ctx, p, graph.Edge{Src: 1, Dst: 500, Type: graph.Retweet, TS: t0})
	apply(ctx, p, graph.Edge{Src: 2, Dst: 500, Type: graph.Retweet, TS: t0 + 300_000})
	got := apply(ctx, p, graph.Edge{Src: 3, Dst: 500, Type: graph.Retweet, TS: t0 + 400_000})
	var s1, s2 float64
	for _, c := range got {
		switch c.User {
		case 1:
			s1 = c.Score
		case 2:
			s2 = c.Score
		}
	}
	if s2 <= s1 {
		t.Fatalf("fresher co-actor should score higher: s1=%f s2=%f", s1, s2)
	}
}

func TestTriangleClosureWindowExpiry(t *testing.T) {
	ctx := newCtx(t, nil, false, time.Hour)
	p := NewTriangleClosure(time.Minute)
	t0 := int64(1_000_000)
	apply(ctx, p, graph.Edge{Src: 1, Dst: 500, Type: graph.Retweet, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 3, Dst: 500, Type: graph.Retweet, TS: t0 + 120_000})
	if len(got) != 0 {
		t.Fatalf("expired co-action recommended: %v", got)
	}
}

func TestTriangleClosureSuppression(t *testing.T) {
	// User 1 already follows actor 3: no candidate.
	static := []graph.Edge{{Src: 1, Dst: 3}}
	ctx := newCtx(t, static, true, time.Hour)
	p := NewTriangleClosure(10 * time.Minute)
	t0 := int64(1_000_000)
	apply(ctx, p, graph.Edge{Src: 1, Dst: 500, Type: graph.Retweet, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 3, Dst: 500, Type: graph.Retweet, TS: t0 + 1})
	if len(got) != 0 {
		t.Fatalf("known follow recommended: %v", got)
	}
}

func TestTriangleClosureMaxCandidates(t *testing.T) {
	ctx := newCtx(t, nil, false, time.Hour)
	p, err := NewPlannedProgram("capped", coActorOps(windowsOf(10*time.Minute, graph.Retweet), 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	for i := graph.VertexID(1); i <= 5; i++ {
		apply(ctx, p, graph.Edge{Src: i, Dst: 500, Type: graph.Retweet, TS: t0 + int64(i)})
	}
	got := apply(ctx, p, graph.Edge{Src: 9, Dst: 500, Type: graph.Retweet, TS: t0 + 100})
	if len(got) != 2 {
		t.Fatalf("MaxCandidates not honored: %d", len(got))
	}
}

func TestNewTriangleClosurePanics(t *testing.T) {
	assertPanics(t, func() { NewTriangleClosure(0) })
}

// TestTriangleClosureMatchesReference holds the plan NewTriangleClosure
// builds to the hand-written program it replaced over twenty seeded worlds,
// every trigger type among them: the same candidates on every event, in the
// same order, with the same Via, Score and Program.
func TestTriangleClosureMatchesReference(t *testing.T) {
	plan, hand := NewTriangleClosure(10*time.Minute), handTriangle{Name: "triangle-closure", Window: 10 * time.Minute}
	if plan.ShareKey() != "co|fan64|600000,600000,600000," {
		t.Fatalf("share key %q", plan.ShareKey())
	}
	for seed := int64(1); seed <= 20; seed++ {
		ctx, stream := randomWorld(seed, 40, 300, 1500)
		emitted := 0
		for i, e := range stream {
			ctx.D.Insert(e)
			want := hand.OnEdge(ctx, e)
			sameCandidates(t, i, want, plan.OnEdge(ctx, e))
			emitted += len(want)
		}
		if emitted == 0 {
			t.Fatalf("seed %d: vacuous run", seed)
		}
	}
}
