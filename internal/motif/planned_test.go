package motif

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/statstore"
)

// windowsOf is the per-type window table of a diamond over types (empty
// means follows only), for the tests that spell a Shape.
func windowsOf(window time.Duration, types ...graph.EdgeType) [NumEdgeTypes]int64 {
	var win [NumEdgeTypes]int64
	if len(types) == 0 {
		types = []graph.EdgeType{graph.Follow}
	}
	for _, t := range types {
		win[t] = window.Milliseconds()
	}
	return win
}

// randomWorld builds a seeded random static graph, follows index, and
// dynamic stream for differential runs.
func randomWorld(seed int64, users, statics, events int) (*Context, []graph.Edge) {
	rng := rand.New(rand.NewSource(seed))
	var sEdges []graph.Edge
	for i := 0; i < statics; i++ {
		src := graph.VertexID(1 + rng.Intn(users))
		dst := graph.VertexID(1 + rng.Intn(users))
		if src == dst {
			continue
		}
		sEdges = append(sEdges, graph.Edge{Src: src, Dst: dst})
	}
	b := &statstore.Builder{}
	s := statstore.New(b.Build(sEdges))
	follows := make(map[[2]graph.VertexID]bool, len(sEdges))
	for _, e := range sEdges {
		follows[[2]graph.VertexID{e.Src, e.Dst}] = true
	}
	d := dynstore.New(dynstore.Options{Retention: time.Hour, MaxPerTarget: 256})
	ctx := &Context{
		S: s, D: d,
		Follows: func(a, c graph.VertexID) bool { return follows[[2]graph.VertexID{a, c}] },
	}
	ts := int64(1_000_000)
	stream := make([]graph.Edge, 0, events)
	for i := 0; i < events; i++ {
		ts += int64(rng.Intn(30_000))
		stream = append(stream, graph.Edge{
			Src:  graph.VertexID(1 + rng.Intn(users)),
			Dst:  graph.VertexID(1 + rng.Intn(users)),
			Type: graph.EdgeType(rng.Intn(3)),
			TS:   ts,
		})
	}
	return ctx, stream
}

func sameCandidates(t *testing.T, i int, want, got []Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("event %d: oracle %d candidates, planned %d\noracle: %v\nplanned: %v",
			i, len(want), len(got), want, got)
	}
	if len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("event %d: candidates differ\noracle: %v\nplanned: %v", i, want, got)
	}
}

// TestPlannedMatchesDiamondOracle drives the plan NewDiamond builds and the
// hand-written diamond over identical random worlds and demands exact
// per-event candidate equality (order, via, scores, labels).
func TestPlannedMatchesDiamondOracle(t *testing.T) {
	cases := []struct {
		seed    int64
		k       int
		window  time.Duration
		types   []graph.EdgeType
		fanout  int
		maxCand int
	}{
		{1, 2, 5 * time.Minute, nil, 0, 0},
		{2, 3, 10 * time.Minute, nil, 64, 100},
		{3, 2, 2 * time.Minute, []graph.EdgeType{graph.Retweet, graph.Favorite}, 8, 3},
		{4, 4, 30 * time.Minute, []graph.EdgeType{graph.Follow, graph.Retweet}, 16, 0},
	}
	for _, c := range cases {
		cfg := DiamondConfig{
			Name: "m", K: c.k, Window: c.window, EdgeTypes: c.types,
			MaxFanout: c.fanout, MaxCandidates: c.maxCand,
		}
		oracle := newHandDiamond(cfg)
		planned := NewDiamond(cfg)
		ctx, stream := randomWorld(c.seed, 50, 400, 3000)
		emitted := 0
		for i, e := range stream {
			ctx.D.Insert(e)
			want := oracle.OnEdge(ctx, e)
			got := planned.OnEdge(ctx, e)
			sameCandidates(t, i, want, got)
			emitted += len(want)
		}
		if emitted == 0 {
			t.Fatalf("seed %d: vacuous run, no candidates emitted", c.seed)
		}
	}
}

// TestPlannedTriggerOnlyMatchesFreshFollow checks the pruned k=1 plan
// against the hand-written fresh-follow on follow-only triggers.
func TestPlannedTriggerOnlyMatchesFreshFollow(t *testing.T) {
	oracle := handFreshFollow{maxCandidates: 5}
	planned := NewFreshFollow(5)
	ctx, stream := randomWorld(7, 40, 300, 2000)
	emitted := 0
	for i, e := range stream {
		ctx.D.Insert(e)
		want := oracle.OnEdge(ctx, e)
		got := planned.OnEdge(ctx, e)
		sameCandidates(t, i, want, got)
		emitted += len(want)
	}
	if emitted == 0 {
		t.Fatal("vacuous run")
	}
}

// TestPlannedGroupMatchesIndependent proves the shared-prefix executor is
// candidate-for-candidate identical to running each member independently —
// its op list interpreted op by op, and the member alone as a group of one —
// across thresholds, emission caps, and chain depths.
func TestPlannedGroupMatchesIndependent(t *testing.T) {
	window := 10 * time.Minute
	types := []graph.EdgeType{graph.Follow, graph.Retweet}
	mk := func(name string, k, maxCands int) *PlannedProgram {
		return NewDiamond(DiamondConfig{
			Name: name, K: k, Window: window, EdgeTypes: types, MaxFanout: 32, MaxCandidates: maxCands,
		})
	}
	deep, err := NewPlannedProgram("deep", Shape{
		WindowMS: windowsOf(window, types...), K: 2, MaxFanout: 32, ExpandCaps: []int{64},
	})
	if err != nil {
		t.Fatal(err)
	}
	members := []*PlannedProgram{mk("k3", 3, 0), mk("k2", 2, 10), mk("k2b", 2, 0), mk("k4", 4, 2), deep}
	g, err := NewPlannedGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	slots := []int{0, 1, 2, 3, 4}
	ctx, stream := randomWorld(11, 40, 500, 3000)
	s := GetScratch()
	defer PutScratch(s)
	res := make([][]Candidate, len(members))
	emitted := 0
	for i, e := range stream {
		ctx.D.Insert(e)
		for j := range res {
			res[j] = nil
		}
		g.DetectInto(ctx, e, s, res, slots)
		for j, m := range members {
			want := interpretOps(ctx, m.Name(), m.Ops(), e)
			sameCandidates(t, i, want, res[j])
			sameCandidates(t, i, want, m.OnEdge(ctx, e))
			emitted += len(want)
		}
	}
	if emitted == 0 {
		t.Fatal("vacuous run")
	}
}

// TestPlannedGroupOneKernelPass pins where sharing runs through the
// threshold: a group of twenty thresholds k = 2..21 makes one kernel pass per
// event that reaches the threshold — the pass at k = 2 carries the counts
// every larger k filters on — not one per distinct k, and the members that
// emit one user from that pass share the one Via.
func TestPlannedGroupOneKernelPass(t *testing.T) {
	var members []*PlannedProgram
	var slots []int
	for k := 2; k <= 21; k++ {
		members = append(members, NewDiamond(DiamondConfig{
			Name: fmt.Sprintf("k%d", k), K: k, Window: 10 * time.Minute, MaxFanout: 64,
		}))
		slots = append(slots, k-2)
	}
	g, err := NewPlannedGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stream := randomWorld(11, 40, 500, 3000)
	solo := members[0] // k = 2: reaches the threshold exactly when the group does
	s, soloScratch := new(Scratch), new(Scratch)
	res := make([][]Candidate, len(members))
	events, shared := uint64(0), 0
	owners := map[*graph.VertexID]Candidate{}
	for _, e := range stream {
		ctx.D.Insert(e)
		clear(res)
		before := s.passes
		g.DetectInto(ctx, e, s, res, slots)
		if s.passes-before > 1 {
			t.Fatalf("event %v: %d kernel passes", e, s.passes-before)
		}
		events += s.passes - before
		solo.OnEdgeScratch(ctx, e, soloScratch)
		for _, cands := range res {
			shared += viaOwnership(t, owners, cands)
		}
	}
	if s.passes != soloScratch.passes || events == 0 {
		t.Fatalf("group of 20 made %d kernel passes, its k=2 member alone %d", s.passes, soloScratch.passes)
	}
	if shared == 0 {
		t.Fatal("vacuous run: no two thresholds emitted the same user")
	}
}

// TestPlannedGroupRejectsMixedKeys pins the grouping precondition.
func TestPlannedGroupRejectsMixedKeys(t *testing.T) {
	a := NewDiamond(DiamondConfig{Name: "a", K: 2, Window: time.Minute, MaxFanout: 8})
	b := NewDiamond(DiamondConfig{Name: "b", K: 2, Window: 2 * time.Minute, MaxFanout: 8})
	if _, err := NewPlannedGroup([]*PlannedProgram{a, b}); err == nil {
		t.Fatal("mixed windows must not group")
	}
}

// TestPlannedProgramValidation exercises NewPlannedProgram's shape checks.
func TestPlannedProgramValidation(t *testing.T) {
	valid := Shape{WindowMS: windowsOf(time.Minute), K: 2}
	if _, err := NewPlannedProgram("", valid); err == nil {
		t.Fatal("empty name accepted")
	}
	noTypes := valid
	noTypes.WindowMS = [NumEdgeTypes]int64{}
	if _, err := NewPlannedProgram("x", noTypes); err == nil {
		t.Fatal("typeless filter accepted")
	}
	negative := valid
	negative.WindowMS[graph.Retweet] = -1
	if _, err := NewPlannedProgram("x", negative); err == nil {
		t.Fatal("negative window accepted")
	}
	noK := valid
	noK.K = 0
	if _, err := NewPlannedProgram("x", noK); err == nil {
		t.Fatal("K 0 accepted")
	}
	deep := valid
	deep.ExpandCaps = []int{0, 0, 0}
	if _, err := NewPlannedProgram("x", deep); err == nil {
		t.Fatal("3 expansions accepted")
	}
	co := Shape{WindowMS: windowsOf(time.Minute), K: 2, MaxFanout: 8, CoActors: true}
	if _, err := NewPlannedProgram("x", co); err == nil {
		t.Fatal("co-actors after a K 2 probe accepted")
	}
	co.K, co.ExpandCaps = 1, []int{0}
	if _, err := NewPlannedProgram("x", co); err == nil {
		t.Fatal("expanded co-actors accepted")
	}
}
