package motif

import (
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/statstore"
)

// newCtx builds a context from static A→B edges with an optional
// already-follows suppressor derived from the same edges.
func newCtx(t *testing.T, static []graph.Edge, suppress bool, retention time.Duration) *Context {
	t.Helper()
	b := &statstore.Builder{}
	s := statstore.New(b.Build(static))
	d := dynstore.New(dynstore.Options{Retention: retention})
	ctx := &Context{S: s, D: d}
	if suppress {
		byA := make(map[graph.VertexID][]graph.VertexID)
		for _, e := range static {
			byA[e.Src] = append(byA[e.Src], e.Dst)
		}
		idx := make(map[graph.VertexID]graph.AdjList, len(byA))
		for a, bs := range byA {
			idx[a] = graph.NewAdjList(bs)
		}
		ctx.Follows = func(a, c graph.VertexID) bool { return idx[a].Contains(c) }
	}
	return ctx
}

// apply inserts and detects, as the engine does.
func apply(ctx *Context, p Program, e graph.Edge) []Candidate {
	ctx.D.Insert(e)
	return p.OnEdge(ctx, e)
}

// Figure 1 of the paper: A1→B1, A2→B1, A2→B2, A3→B2. With k=2, the edge
// B2→C2 arriving after B1→C2 must recommend C2 to exactly A2.
func TestFigure1Walkthrough(t *testing.T) {
	const (
		a1 = graph.VertexID(iota + 1)
		a2
		a3
		b1
		b2
		c2
	)
	static := []graph.Edge{
		{Src: a1, Dst: b1}, {Src: a2, Dst: b1},
		{Src: a2, Dst: b2}, {Src: a3, Dst: b2},
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: 10 * time.Minute})

	t0 := int64(1_000_000)
	if got := apply(ctx, p, graph.Edge{Src: b1, Dst: c2, Type: graph.Follow, TS: t0}); len(got) != 0 {
		t.Fatalf("first edge completed a motif: %v", got)
	}
	got := apply(ctx, p, graph.Edge{Src: b2, Dst: c2, Type: graph.Follow, TS: t0 + 60_000})
	if len(got) != 1 {
		t.Fatalf("want exactly one candidate, got %v", got)
	}
	c := got[0]
	if c.User != a2 || c.Item != c2 {
		t.Fatalf("want recommend C2 to A2, got item %d to user %d", c.Item, c.User)
	}
	if len(c.Via) != 2 {
		t.Fatalf("want 2 supporting B's, got %v", c.Via)
	}
	if c.Program != "diamond" {
		t.Fatalf("program name = %q", c.Program)
	}
	if c.Score != 2 {
		t.Fatalf("score = %f, want 2 (supporter count)", c.Score)
	}
}

func TestDiamondWindowExpiry(t *testing.T) {
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 1, Dst: 11},
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Minute})

	t0 := int64(1_000_000)
	apply(ctx, p, graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	// The second supporting edge arrives 2 minutes later: outside τ.
	got := apply(ctx, p, graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 120_000})
	if len(got) != 0 {
		t.Fatalf("stale support should not complete the motif: %v", got)
	}
	// A third edge inside the window relative to the second completes it
	// only if two B's acted within τ — B=11 and B=10 again.
	got = apply(ctx, p, graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0 + 150_000})
	if len(got) != 1 {
		t.Fatalf("re-action inside window should complete: %v", got)
	}
}

func TestDiamondKThreshold(t *testing.T) {
	// User 1 follows B's 10,11,12; k=3 requires all three to act.
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 1, Dst: 11}, {Src: 1, Dst: 12},
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 3, Window: time.Hour})
	t0 := int64(1_000_000)
	if got := apply(ctx, p, graph.Edge{Src: 10, Dst: 99, TS: t0}); len(got) != 0 {
		t.Fatal("1 of 3")
	}
	if got := apply(ctx, p, graph.Edge{Src: 11, Dst: 99, TS: t0 + 1}); len(got) != 0 {
		t.Fatal("2 of 3")
	}
	got := apply(ctx, p, graph.Edge{Src: 12, Dst: 99, TS: t0 + 2})
	if len(got) != 1 || got[0].User != 1 {
		t.Fatalf("3 of 3 should recommend to user 1: %v", got)
	}
	if len(got[0].Via) != 3 {
		t.Fatalf("Via = %v, want all three B's", got[0].Via)
	}
}

func TestDiamondSelfRecommendationSuppressed(t *testing.T) {
	// User 99 follows B's 10 and 11; both follow 99 back. The candidate
	// "recommend 99 to 99" must be suppressed.
	static := []graph.Edge{
		{Src: 99, Dst: 10}, {Src: 99, Dst: 11},
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Hour})
	t0 := int64(1_000)
	apply(ctx, p, graph.Edge{Src: 10, Dst: 99, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 11, Dst: 99, TS: t0 + 1})
	if len(got) != 0 {
		t.Fatalf("self-recommendation emitted: %v", got)
	}
}

func TestDiamondAlreadyFollowsSuppressed(t *testing.T) {
	// User 1 follows 10, 11, and also already follows 99.
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 1, Dst: 11}, {Src: 1, Dst: 99},
	}
	ctx := newCtx(t, static, true, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Hour})
	t0 := int64(1_000)
	apply(ctx, p, graph.Edge{Src: 10, Dst: 99, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 11, Dst: 99, TS: t0 + 1})
	if len(got) != 0 {
		t.Fatalf("already-follows candidate emitted: %v", got)
	}
}

func TestDiamondEdgeTypeFilter(t *testing.T) {
	static := []graph.Edge{{Src: 1, Dst: 10}, {Src: 1, Dst: 11}}
	ctx := newCtx(t, static, false, time.Hour)
	// Follow-only program ignores retweets.
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Hour})
	t0 := int64(1_000)
	apply(ctx, p, graph.Edge{Src: 10, Dst: 99, Type: graph.Retweet, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 11, Dst: 99, Type: graph.Retweet, TS: t0 + 1})
	if len(got) != 0 {
		t.Fatalf("retweets triggered a follow-only program: %v", got)
	}

	// A content program sees them. Note D now already has both retweets.
	ctx2 := newCtx(t, static, false, time.Hour)
	pc := NewDiamond(DiamondConfig{
		Name: "content-coaction", K: 2, Window: time.Hour,
		EdgeTypes: []graph.EdgeType{graph.Retweet, graph.Favorite},
	})
	apply(ctx2, pc, graph.Edge{Src: 10, Dst: 99, Type: graph.Retweet, TS: t0})
	got = apply(ctx2, pc, graph.Edge{Src: 11, Dst: 99, Type: graph.Favorite, TS: t0 + 1})
	if len(got) != 1 {
		t.Fatalf("content co-action should complete: %v", got)
	}
	if got[0].Program != "content-coaction" {
		t.Fatalf("program name = %q", got[0].Program)
	}
}

func TestDiamondMaxFanout(t *testing.T) {
	// 50 B's act on the target; the fanout cap must bound the supporter
	// set considered without losing the detection.
	var static []graph.Edge
	for b := graph.VertexID(10); b < 60; b++ {
		static = append(static, graph.Edge{Src: 1, Dst: b})
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Hour, MaxFanout: 5})
	t0 := int64(1_000)
	var last []Candidate
	for i, e := range static {
		last = apply(ctx, p, graph.Edge{Src: e.Dst, Dst: 99, TS: t0 + int64(i)})
	}
	if len(last) != 1 {
		t.Fatalf("detection lost under fanout cap: %v", last)
	}
	if len(last[0].Via) > 5 {
		t.Fatalf("Via %v exceeds fanout cap", last[0].Via)
	}
}

func TestDiamondMaxCandidates(t *testing.T) {
	// Two users each follow both acting B's: two candidates, capped to 1.
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 1, Dst: 11},
		{Src: 2, Dst: 10}, {Src: 2, Dst: 11},
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Hour, MaxCandidates: 1})
	t0 := int64(1_000)
	apply(ctx, p, graph.Edge{Src: 10, Dst: 99, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 11, Dst: 99, TS: t0 + 1})
	if len(got) != 1 {
		t.Fatalf("MaxCandidates not honored: %d candidates", len(got))
	}
}

func TestDiamondMultipleRecipients(t *testing.T) {
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 1, Dst: 11},
		{Src: 2, Dst: 10}, {Src: 2, Dst: 11},
		{Src: 3, Dst: 10}, // only one of the two B's
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Hour})
	t0 := int64(1_000)
	apply(ctx, p, graph.Edge{Src: 10, Dst: 99, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 11, Dst: 99, TS: t0 + 1})
	if len(got) != 2 {
		t.Fatalf("want candidates for users 1 and 2, got %v", got)
	}
	users := map[graph.VertexID]bool{}
	for _, c := range got {
		users[c.User] = true
	}
	if !users[1] || !users[2] || users[3] {
		t.Fatalf("wrong recipients: %v", users)
	}
}

func TestDiamondDuplicateBCountsOnce(t *testing.T) {
	// The same B acting twice must not satisfy k=2 alone.
	static := []graph.Edge{{Src: 1, Dst: 10}, {Src: 1, Dst: 11}}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Hour})
	t0 := int64(1_000)
	apply(ctx, p, graph.Edge{Src: 10, Dst: 99, TS: t0})
	got := apply(ctx, p, graph.Edge{Src: 10, Dst: 99, TS: t0 + 1})
	if len(got) != 0 {
		t.Fatalf("duplicate B satisfied k=2: %v", got)
	}
}

func TestNewDiamondValidation(t *testing.T) {
	assertPanics(t, func() { NewDiamond(DiamondConfig{K: 1, Window: time.Minute}) })
	assertPanics(t, func() { NewDiamond(DiamondConfig{K: 2}) })
	// A plan's window table is a fixed array: a type outside it is refused.
	assertPanics(t, func() {
		NewDiamond(DiamondConfig{K: 2, Window: time.Minute, EdgeTypes: []graph.EdgeType{7}})
	})
	p := NewDiamond(DiamondConfig{K: 2, Window: time.Minute, Name: "custom"})
	if p.Name() != "custom" {
		t.Fatalf("custom name lost: %q", p.Name())
	}
	if p.K() != 2 {
		t.Fatal("K() does not round-trip")
	}
}

func TestFreshFollow(t *testing.T) {
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10}, {Src: 10, Dst: 20},
	}
	ctx := newCtx(t, static, false, time.Hour)
	p := NewFreshFollow(0)
	got := apply(ctx, p, graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: 1})
	if len(got) != 2 {
		t.Fatalf("fresh-follow should broadcast to both followers: %v", got)
	}
	for _, c := range got {
		if c.Item != 99 || len(c.Via) != 1 || c.Via[0] != 10 {
			t.Fatalf("bad candidate: %+v", c)
		}
	}
	// Non-follow edges are ignored.
	if got := apply(ctx, p, graph.Edge{Src: 10, Dst: 98, Type: graph.Retweet, TS: 2}); len(got) != 0 {
		t.Fatal("fresh-follow should ignore retweets")
	}
	// Candidate cap.
	capped := NewFreshFollow(1)
	if got := apply(ctx, capped, graph.Edge{Src: 10, Dst: 97, Type: graph.Follow, TS: 3}); len(got) != 1 {
		t.Fatalf("MaxCandidates not honored: %v", got)
	}
}

func TestFreshFollowSelfAndKnownSuppression(t *testing.T) {
	static := []graph.Edge{
		{Src: 99, Dst: 10},                   // the target itself follows B
		{Src: 1, Dst: 10}, {Src: 1, Dst: 99}, // user 1 already follows 99
	}
	ctx := newCtx(t, static, true, time.Hour)
	p := NewFreshFollow(0)
	got := apply(ctx, p, graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: 1})
	if len(got) != 0 {
		t.Fatalf("self/known suppression failed: %v", got)
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
