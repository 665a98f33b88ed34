package motifdsl

import (
	"strings"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

func TestPlanDiamond(t *testing.T) {
	p, err := CompileOne(validDiamond)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := p.(*motif.PlannedProgram)
	if !ok {
		t.Fatalf("program type %T, want *motif.PlannedProgram", p)
	}
	if d.K() != 3 || d.MaxFanout() != 64 || d.MaxCandidates() != 100 {
		t.Fatalf("k=%d fanout=%d cands=%d", d.K(), d.MaxFanout(), d.MaxCandidates())
	}
	if got := d.WindowFor(graph.Follow); got != (10 * time.Minute).Milliseconds() {
		t.Fatalf("window = %dms", got)
	}
	if d.Name() != "diamond" {
		t.Fatalf("name = %q", d.Name())
	}
	if d.TriggerOnly() {
		t.Fatal("k=3 plan must probe the dynamic store")
	}
}

func TestPlanDefaultWindow(t *testing.T) {
	p, err := CompileOne(`
motif "x" {
    match A -> B;
    match B => C;
    where count(B) >= 2;
    emit C to A;
}`)
	if err != nil {
		t.Fatal(err)
	}
	got := p.(*motif.PlannedProgram).WindowFor(graph.Follow)
	if got != defaultWindow.Milliseconds() {
		t.Fatalf("window = %dms, want default %v", got, defaultWindow)
	}
}

func TestPlanK1CompilesToTriggerOnly(t *testing.T) {
	p, err := CompileOne(`
motif "broadcast" {
    match A -> B;
    match B =[follow]=> C;
    where count(B) >= 1;
    emit C to A;
    limit candidates 10;
}`)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := p.(*motif.PlannedProgram)
	if !ok {
		t.Fatalf("program type %T, want *motif.PlannedProgram", p)
	}
	if !d.TriggerOnly() {
		t.Fatal("k=1 plan must prune the dynamic probe")
	}
	if d.MaxCandidates() != 10 {
		t.Fatalf("MaxCandidates = %d", d.MaxCandidates())
	}
}

// TestPlanK1HonorsContentTypes is the regression test for the old planner
// silently rejecting (and, for 'within', dropping) non-follow constraints
// on k=1 plans: a k=1 retweet motif now compiles, fires on retweets, and
// stays quiet on follows.
func TestPlanK1HonorsContentTypes(t *testing.T) {
	p, err := CompileOne(`
motif "fresh-retweet" {
    match A -> B;
    match B =[retweet]=> C within 5m;
    where count(B) >= 1;
    emit C to A;
}`)
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*motif.PlannedProgram)
	if d.WindowFor(graph.Retweet) != (5 * time.Minute).Milliseconds() {
		t.Fatalf("retweet window = %dms", d.WindowFor(graph.Retweet))
	}
	if d.WindowFor(graph.Follow) != 0 {
		t.Fatal("k=1 retweet plan must not accept follow triggers")
	}

	b := &statstore.Builder{}
	s := statstore.New(b.Build([]graph.Edge{{Src: 1, Dst: 10}}))
	dyn := dynstore.New(dynstore.Options{Retention: time.Hour})
	ctx := &motif.Context{S: s, D: dyn}
	rt := graph.Edge{Src: 10, Dst: 99, Type: graph.Retweet, TS: 1_000_000}
	dyn.Insert(rt)
	if got := p.OnEdge(ctx, rt); len(got) != 1 || got[0].User != 1 || got[0].Item != 99 {
		t.Fatalf("retweet trigger candidates = %v", got)
	}
	fl := graph.Edge{Src: 10, Dst: 98, Type: graph.Follow, TS: 1_001_000}
	dyn.Insert(fl)
	if got := p.OnEdge(ctx, fl); len(got) != 0 {
		t.Fatalf("follow trigger must not fire: %v", got)
	}
}

func TestPlanVariableNamesAreFree(t *testing.T) {
	// Any identifiers work as long as the roles chain correctly.
	p, err := CompileOne(`
motif "renamed" {
    match user -> influencer;
    match influencer =[favorite]=> tweet within 2m;
    where count(influencer) >= 2;
    emit tweet to user via influencer;
}`)
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*motif.PlannedProgram)
	if d.K() != 2 {
		t.Fatalf("k = %d", d.K())
	}
	if d.WindowFor(graph.Favorite) != (2*time.Minute).Milliseconds() || d.WindowFor(graph.Follow) != 0 {
		t.Fatalf("windows: favorite=%d follow=%d", d.WindowFor(graph.Favorite), d.WindowFor(graph.Follow))
	}
}

// TestPlanPerTypeWindows pins the per-trigger-type window extension: two
// dynamic clauses over the same hop merge into one probe with distinct
// windows per type.
func TestPlanPerTypeWindows(t *testing.T) {
	p, err := CompileOne(`
motif "content" {
    match A -> B;
    match B =[retweet]=> C within 5m;
    match B =[favorite]=> C within 30m;
    where count(B) >= 2;
    emit C to A via B;
}`)
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*motif.PlannedProgram)
	if d.WindowFor(graph.Retweet) != (5 * time.Minute).Milliseconds() {
		t.Fatalf("retweet window = %dms", d.WindowFor(graph.Retweet))
	}
	if d.WindowFor(graph.Favorite) != (30 * time.Minute).Milliseconds() {
		t.Fatalf("favorite window = %dms", d.WindowFor(graph.Favorite))
	}
	if d.WindowFor(graph.Follow) != 0 {
		t.Fatal("follow triggers must be rejected")
	}
}

// TestPlanChain pins the longer-chain extension: two static hops compile
// to a plan with one expansion.
func TestPlanChain(t *testing.T) {
	p, err := CompileOne(`
motif "deep" {
    match A -> M;
    match M -> B;
    match B => C;
    where count(B) >= 2;
    emit C to A;
}`)
	if err != nil {
		t.Fatal(err)
	}
	expands := 0
	for _, op := range p.(*motif.PlannedProgram).Ops() {
		if op.Kind == motif.OpExpand {
			expands++
		}
	}
	if expands != 1 {
		t.Fatalf("expands = %d, want 1", expands)
	}
}

func TestPlanSemanticErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{
			"no dynamic hop",
			`motif "x" { match A -> B; where count(B) >= 2; emit B to A; }`,
			"dynamic hop",
		},
		{
			"static hops branch",
			`motif "x" { match A -> B; match A -> C; match C => D; where count(C) >= 2; emit D to A; }`,
			"branch",
		},
		{
			"two dynamic hops",
			`motif "x" { match A => B; match B => C; where count(B) >= 2; emit C to A; }`,
			"more than one dynamic hop",
		},
		{
			"hops do not chain",
			`motif "x" { match A -> B; match X => C; where count(X) >= 2; emit C to A; }`,
			"do not chain",
		},
		{
			"chain too deep",
			`motif "x" { match A -> B; match B -> C; match C -> D; match D -> E; match E => F; where count(E) >= 2; emit F to A; }`,
			"at most 3 hops",
		},
		{
			"duplicate type window",
			`motif "x" { match A -> B; match B =[retweet]=> C within 5m; match B =[retweet]=> C within 9m; where count(B) >= 2; emit C to A; }`,
			"duplicate window",
		},
		{
			"via on deep chain",
			`motif "x" { match A -> M; match M -> N; match N -> B; match B => C; where count(B) >= 2; emit C to A via B; }`,
			"via attribution",
		},
		{
			"emit wrong item",
			`motif "x" { match A -> B; match B => C; where count(B) >= 2; emit B to A; }`,
			"emit item",
		},
		{
			"emit wrong user",
			`motif "x" { match A -> B; match B => C; where count(B) >= 2; emit C to B; }`,
			"recipient",
		},
		{
			"emit wrong via",
			`motif "x" { match A -> B; match B => C; where count(B) >= 2; emit C to A via C; }`,
			"via",
		},
		{
			"threshold on wrong var",
			`motif "x" { match A -> B; match B => C; where count(A) >= 2; emit C to A; }`,
			"support variable",
		},
		{
			"no threshold",
			`motif "x" { match A -> B; match B => C; emit C to A; }`,
			"missing",
		},
		{
			"duplicate threshold",
			`motif "x" { match A -> B; match B => C; where count(B) >= 2; where count(B) >= 3; emit C to A; }`,
			"duplicate",
		},
		{
			"unknown edge type",
			`motif "x" { match A -> B; match B =[poke]=> C; where count(B) >= 2; emit C to A; }`,
			"unknown edge type",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := CompileOne(c.src)
			if err == nil {
				t.Fatal("compile succeeded")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err.Error(), c.wantSub)
			}
		})
	}
}

func TestCompileMultiple(t *testing.T) {
	progs, err := Compile(validDiamond + `
motif "content" {
    match A -> B;
    match B =[retweet,favorite]=> C within 5m;
    where count(B) >= 3;
    emit C to A via B;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("%d programs", len(progs))
	}
	if progs[0].Name() != "diamond" || progs[1].Name() != "content" {
		t.Fatalf("names = %q, %q", progs[0].Name(), progs[1].Name())
	}
}

func TestPlanDescribe(t *testing.T) {
	spec, err := ParseOne(validDiamond)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	desc := plan.Describe()
	for _, want := range []string{"diamond", "k=3", "10m", "follow"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe() = %q missing %q", desc, want)
		}
	}
	// k=1 plans describe themselves too.
	spec2, _ := ParseOne(`
motif "b" {
    match A -> B;
    match B => C;
    where count(B) >= 1;
    emit C to A;
}`)
	plan2, err := PlanSpec(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2.Describe(), "fresh-follow") {
		t.Fatalf("Describe() = %q", plan2.Describe())
	}
}

// TestCompiledProgramDetects is the end-to-end DSL test: the compiled
// diamond detects the paper's Figure 1 motif.
func TestCompiledProgramDetects(t *testing.T) {
	prog, err := CompileOne(`
motif "fig1" {
    match A -> B;
    match B =[follow]=> C within 10m;
    where count(B) >= 2;
    emit C to A via B;
}`)
	if err != nil {
		t.Fatal(err)
	}
	b := &statstore.Builder{}
	s := statstore.New(b.Build([]graph.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10},
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11},
	}))
	d := dynstore.New(dynstore.Options{Retention: time.Hour})
	ctx := &motif.Context{S: s, D: d}
	t0 := int64(1_000_000)
	e1 := graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0}
	e2 := graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1_000}
	d.Insert(e1)
	if got := prog.OnEdge(ctx, e1); len(got) != 0 {
		t.Fatalf("premature: %v", got)
	}
	d.Insert(e2)
	got := prog.OnEdge(ctx, e2)
	if len(got) != 1 || got[0].User != 2 || got[0].Item != 99 {
		t.Fatalf("candidates = %v", got)
	}
	if got[0].Program != "fig1" {
		t.Fatalf("program label = %q", got[0].Program)
	}
}

// TestPlanChainDetects hand-verifies a depth-2 chain end to end:
// A follows M, M follows B1/B2, both B's act on C within the window, and C
// is recommended to A through connector M.
func TestPlanChainDetects(t *testing.T) {
	prog, err := CompileOne(`
motif "deep" {
    match A -> M;
    match M -> B;
    match B => C;
    where count(B) >= 2;
    emit C to A;
}`)
	if err != nil {
		t.Fatal(err)
	}
	// Followers(x) = who follows x: A(1) follows M(5); M follows B1(10), B2(11).
	b := &statstore.Builder{}
	s := statstore.New(b.Build([]graph.Edge{
		{Src: 1, Dst: 5},
		{Src: 5, Dst: 10}, {Src: 5, Dst: 11},
	}))
	d := dynstore.New(dynstore.Options{Retention: time.Hour})
	ctx := &motif.Context{S: s, D: d}
	t0 := int64(1_000_000)
	e1 := graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0}
	e2 := graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1_000}
	d.Insert(e1)
	if got := prog.OnEdge(ctx, e1); len(got) != 0 {
		t.Fatalf("premature: %v", got)
	}
	d.Insert(e2)
	got := prog.OnEdge(ctx, e2)
	// Threshold survivors = {M}; the expansion frontier is Followers(M) = {A}.
	if len(got) != 1 || got[0].User != 1 || got[0].Item != 99 {
		t.Fatalf("candidates = %v", got)
	}
	// Via carries the connector M's deep supports: the two acting B's.
	if len(got[0].Via) != 2 || got[0].Via[0] != 10 || got[0].Via[1] != 11 {
		t.Fatalf("via = %v, want [10 11]", got[0].Via)
	}
}
