package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/motifdsl"
	"motifstream/internal/racetest"
	"motifstream/internal/statstore"
)

// sharedMotifSet compiles a mixed standing-query set: three share groups
// (follow diamonds, content co-action with per-type windows, k=1
// broadcasts) plus two plans alone under their keys, a retweet broadcast and
// the triangle closure.
func sharedMotifSet(t testing.TB) []motif.Program {
	t.Helper()
	src := ""
	for i, k := range []int{2, 3, 4} {
		src += fmt.Sprintf(`
motif "follow-k%d" {
    match A -> B;
    match B =[follow]=> C within 10m;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout 64;
}`, k, k)
		_ = i
	}
	for _, k := range []int{2, 3} {
		src += fmt.Sprintf(`
motif "content-k%d" {
    match A -> B;
    match B =[retweet]=> C within 5m;
    match B =[favorite]=> C within 30m;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout 32;
    limit candidates 20;
}`, k, k)
	}
	src += `
motif "broadcast" {
    match A -> B;
    match B =[follow]=> C;
    where count(B) >= 1;
    emit C to A;
    limit candidates 8;
}
motif "broadcast-rt" {
    match A -> B;
    match B =[retweet]=> C;
    where count(B) >= 1;
    emit C to A;
}
motif "broadcast2" {
    match A -> B;
    match B =[follow]=> C;
    where count(B) >= 1;
    emit C to A;
}`
	progs, err := motifdsl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// A group of one in the middle of the registration order interleaves
	// the groups' slots.
	mixed := make([]motif.Program, 0, len(progs)+1)
	mixed = append(mixed, progs[:3]...)
	mixed = append(mixed, motif.NewTriangleClosure(10*time.Minute))
	mixed = append(mixed, progs[3:]...)
	return mixed
}

// sharedTestEngine runs progs over a seeded random S.
func sharedTestEngine(t testing.TB, progs []motif.Program) *Engine {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	var sEdges []graph.Edge
	for i := 0; i < 600; i++ {
		src := graph.VertexID(1 + r.Intn(40))
		dst := graph.VertexID(1 + r.Intn(40))
		if src != dst {
			sEdges = append(sEdges, graph.Edge{Src: src, Dst: dst})
		}
	}
	b := &statstore.Builder{}
	e, err := NewEngine(Config{
		Static:   statstore.New(b.Build(sEdges)),
		Dynamic:  dynstore.New(dynstore.Options{Retention: time.Hour, MaxPerTarget: 256}),
		Programs: progs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineSharedMatchesIndependent is the engine-level differential: the
// shared-trie engine must produce, event by event, what its plans produce
// independently — each plan's OnEdge (a group of one) in registration order,
// over a D store of the reference's own — with the same order and the same
// attribution, over a random multi-type stream.
func TestEngineSharedMatchesIndependent(t *testing.T) {
	progs := sharedMotifSet(t)
	shared := sharedTestEngine(t, progs)
	ref := &motif.Context{
		S: shared.Static(),
		D: dynstore.New(dynstore.Options{Retention: time.Hour, MaxPerTarget: 256}),
	}

	// Expected trie: {follow-k2,k3,k4}, {content-k2,k3}, and the two
	// follow broadcasts; broadcast-rt (retweet trigger) and the triangle stay
	// groups of one.
	ss := shared.Sharing()
	if ss.Groups != 3 || ss.GroupedPrograms != 7 || ss.ScansSavedPerEvent != 4 {
		t.Fatalf("sharing did not engage as expected: %+v", ss)
	}
	if len(shared.groups) != 5 {
		t.Fatalf("%d groups, want one per key: 5", len(shared.groups))
	}

	r := rand.New(rand.NewSource(99))
	ts := int64(1_000_000)
	const events = 4000
	emitted := map[string]int{}
	total := 0
	for i := 0; i < events; i++ {
		ts += int64(r.Intn(20_000))
		e := graph.Edge{
			Src:  graph.VertexID(1 + r.Intn(40)),
			Dst:  graph.VertexID(1 + r.Intn(40)),
			Type: graph.EdgeType(r.Intn(3)),
			TS:   ts,
		}
		ref.D.Insert(e)
		var want []motif.Candidate
		for _, p := range progs {
			want = append(want, p.OnEdge(ref, e)...)
		}
		got := shared.Apply(e)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("event %d (%v): shared candidates diverge\nindependent: %v\nshared: %v", i, e, want, got)
		}
		for _, c := range want {
			emitted[c.Program]++
		}
		total += len(want)
	}
	if emitted["follow-k2"] == 0 || emitted["content-k2"] == 0 || emitted["triangle-closure"] == 0 {
		t.Fatalf("vacuous run: candidates by program %v", emitted)
	}
	if ev, cands := counter(t, shared, "engine.events"), counter(t, shared, "engine.candidates"); ev != events || cands != uint64(total) {
		t.Fatalf("counters: %d events, %d candidates; want %d and %d", ev, cands, events, total)
	}
}

// TestDetectBatchAllocBudgetMultiMotif extends the alloc gate to a shared
// group: five planned motifs in one share group plus the triangle closure, a
// second group, allocate nothing warm on the no-candidate path: the engine
// keeps its scratches, so a batch of 64 fills no chunk and takes no scratch
// from a pool the collector may have emptied. The triangle probes D on
// every event, but its 50 ms window holds no co-actor: a target's previous
// actor acted 80 ms before.
func TestDetectBatchAllocBudgetMultiMotif(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation gate: race instrumentation allocates; the non-race run enforces the budget")
	}
	b := &statstore.Builder{}
	progs := []motif.Program{motif.NewTriangleClosure(50 * time.Millisecond)}
	for _, k := range []int{2, 3, 3, 4, 5} {
		src := fmt.Sprintf(`
motif "g%d" {
    match A -> B;
    match B =[follow]=> C within 30s;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout 64;
}`, len(progs), k)
		ps, err := motifdsl.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, ps...)
	}
	e, err := NewEngine(Config{
		Static:   statstore.New(b.Build(nil)),
		Dynamic:  dynstore.New(dynstore.Options{Retention: time.Minute, MaxPerTarget: 64}),
		Programs: progs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Sharing(); s.Groups != 1 || s.ScansSavedPerEvent != 4 {
		t.Fatalf("expected one 5-member group: %+v", s)
	}
	const batch = 64
	edges := make([]graph.Edge, batch)
	out := make([][]motif.Candidate, batch)
	ts := int64(1_000_000)
	fill := func() {
		for i := range edges {
			ts += 20
			edges[i] = graph.Edge{
				Src:  graph.VertexID(1 + (i % 8)),
				Dst:  graph.VertexID(50 + (i % 4)),
				Type: graph.Follow,
				TS:   ts,
			}
		}
	}
	for i := 0; i < 20; i++ {
		fill()
		replicaApply(e, batch, edges, out)
	}
	perBatch := testing.AllocsPerRun(20, func() {
		fill()
		replicaApply(e, batch, edges, out)
	})
	if perBatch != 0 {
		t.Fatalf("multi-motif no-candidate path allocates %.1f/batch; want 0", perBatch)
	}
}

// TestPrimaryDiamondJoinsTrie pins what NewDiamond returning a plan buys:
// its ops and share key equal those of the DSL declaration of the same
// shape, so the facade's primary diamond and registered motifs of that key
// form one group and probe D and S once per event between them.
func TestPrimaryDiamondJoinsTrie(t *testing.T) {
	primary := motif.NewDiamond(motif.DiamondConfig{K: 3, Window: 10 * time.Minute, MaxFanout: 256})
	const decl = `
motif "%s" {
    match A -> B;
    match B =[follow]=> C within 10m;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout 256;
}`
	same, err := motifdsl.CompileOne(fmt.Sprintf(decl, "diamond", 3))
	if err != nil {
		t.Fatal(err)
	}
	compiled := same.(*motif.PlannedProgram)
	if !reflect.DeepEqual(primary.Ops(), compiled.Ops()) {
		t.Fatalf("ops differ:\nNewDiamond: %+v\nDSL:        %+v", primary.Ops(), compiled.Ops())
	}
	if primary.ShareKey() != compiled.ShareKey() {
		t.Fatalf("share keys differ: %q vs %q", primary.ShareKey(), compiled.ShareKey())
	}

	progs := []motif.Program{primary}
	for _, k := range []int{2, 3, 4, 5} {
		p, err := motifdsl.CompileOne(fmt.Sprintf(decl, fmt.Sprintf("registered-k%d", k), k))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	b := &statstore.Builder{}
	e, err := NewEngine(Config{
		Static:   statstore.New(b.Build(nil)),
		Dynamic:  dynstore.New(dynstore.Options{Retention: time.Hour}),
		Programs: progs,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := SharingStats{Programs: 5, Groups: 1, GroupedPrograms: 5, ScansSavedPerEvent: 4}
	if got := e.Sharing(); got != want || len(e.groups) != 1 {
		t.Fatalf("sharing = %+v over %d groups, want %+v over 1", got, len(e.groups), want)
	}
}
