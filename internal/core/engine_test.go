package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

func testEngine(t *testing.T, static []graph.Edge, cfgTweak func(*Config)) *Engine {
	t.Helper()
	b := &statstore.Builder{}
	cfg := Config{
		Static:  statstore.New(b.Build(static)),
		Dynamic: dynstore.New(dynstore.Options{Retention: time.Hour}),
		Programs: []motif.Program{
			motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute}),
		},
	}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// counter reads the engine's counter registered under name, failing the
// test on a name the engine's registry does not hold.
func counter(t testing.TB, e *Engine, name string) uint64 {
	t.Helper()
	v, ok := e.Metrics().CounterValue(name)
	if !ok {
		t.Fatalf("no counter %q in the engine's registry", name)
	}
	return v
}

func fig1Static() []graph.Edge {
	return []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10},
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11},
	}
}

func TestNewEngineValidation(t *testing.T) {
	b := &statstore.Builder{}
	s := statstore.New(b.Build(nil))
	d := dynstore.New(dynstore.Options{})
	progs := []motif.Program{motif.NewFreshFollow(0)}
	if _, err := NewEngine(Config{Dynamic: d, Programs: progs}); err == nil {
		t.Fatal("missing Static accepted")
	}
	if _, err := NewEngine(Config{Static: s, Programs: progs}); err == nil {
		t.Fatal("missing Dynamic accepted")
	}
	if _, err := NewEngine(Config{Static: s, Dynamic: d}); err == nil {
		t.Fatal("missing Programs accepted")
	}
}

func TestEngineDetectsAndCounts(t *testing.T) {
	e := testEngine(t, fig1Static(), nil)
	t0 := int64(1_000_000)
	e.Apply(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	got := e.Apply(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1_000})
	if len(got) != 1 || got[0].User != 2 {
		t.Fatalf("candidates = %v", got)
	}
	if n := counter(t, e, "engine.events"); n != 2 {
		t.Fatalf("engine.events = %d", n)
	}
	if n := counter(t, e, "engine.candidates"); n != 1 {
		t.Fatalf("engine.candidates = %d", n)
	}
	if n := e.Metrics().Histogram("engine.query_latency").Snapshot().Count; n != 2 {
		t.Fatalf("latency observations = %d", n)
	}
	if n := e.Dynamic().Stats().Edges; n != 2 {
		t.Fatalf("D edges = %d", n)
	}
}

func TestEngineInsertsEachEdgeOnce(t *testing.T) {
	// Two programs must not double-insert: D should hold exactly the
	// applied edges.
	e := testEngine(t, fig1Static(), func(c *Config) {
		c.Programs = append(c.Programs, motif.NewFreshFollow(0))
	})
	for i := 0; i < 5; i++ {
		e.Apply(graph.Edge{Src: 10, Dst: graph.VertexID(50 + i), Type: graph.Follow, TS: int64(i)})
	}
	if n := e.Dynamic().Stats().Edges; n != 5 {
		t.Fatalf("D edges = %d, want 5", n)
	}
}

// echoProgram is a caller's own motif that implements only the bare Program
// interface.
type echoProgram struct{}

func (echoProgram) Name() string { return "echo" }
func (echoProgram) OnEdge(_ *motif.Context, e graph.Edge) []motif.Candidate {
	return []motif.Candidate{{User: e.Src, Item: e.Dst, Program: "echo"}}
}

// TestEngineRejectsNonPlans pins the engine's contract: it runs plans only,
// and an entry that is not one — nil, a nil plan, a caller's own Program — is
// an error naming the entry, not a panic at the first Apply.
func TestEngineRejectsNonPlans(t *testing.T) {
	b := &statstore.Builder{}
	for _, c := range []struct {
		odd  motif.Program
		want string
	}{
		{nil, "Programs[1] is nil"},
		{(*motif.PlannedProgram)(nil), "Programs[1] is nil"},
		{echoProgram{}, "Programs[1] is a core.echoProgram, not a plan"},
	} {
		_, err := NewEngine(Config{
			Static:   statstore.New(b.Build(nil)),
			Dynamic:  dynstore.New(dynstore.Options{}),
			Programs: []motif.Program{motif.NewFreshFollow(1), c.odd, motif.NewFreshFollow(1)},
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%T: err = %v, want one saying %q", c.odd, err, c.want)
		}
	}
}

func TestEngineStreamTimeSweep(t *testing.T) {
	e := testEngine(t, fig1Static(), func(c *Config) {
		c.Dynamic = dynstore.New(dynstore.Options{Retention: time.Minute})
		c.SweepInterval = time.Minute
	})
	t0 := int64(1_000_000)
	// Fill D with edges to many distinct targets.
	for i := 0; i < 10; i++ {
		e.Apply(graph.Edge{Src: 10, Dst: graph.VertexID(100 + i), Type: graph.Follow, TS: t0})
	}
	if n := e.Dynamic().Stats().Targets; n != 10 {
		t.Fatalf("targets before sweep = %d", n)
	}
	// Advance stream time by 2 minutes: sweep becomes due and the old
	// targets (outside 1m retention) vanish.
	e.Apply(graph.Edge{Src: 11, Dst: 200, Type: graph.Follow, TS: t0 + 120_000})
	if n := e.Dynamic().Stats().Targets; n != 1 {
		t.Fatalf("targets after sweep = %d, want 1 (only the fresh one)", n)
	}
}

func TestEngineReloadStatic(t *testing.T) {
	e := testEngine(t, fig1Static(), nil)
	b := &statstore.Builder{}
	// New static graph: only user 7 follows the B's.
	e.ReloadStatic(b.Build([]graph.Edge{
		{Src: 7, Dst: 10}, {Src: 7, Dst: 11},
	}))
	t0 := int64(1_000_000)
	e.Apply(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	got := e.Apply(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1})
	if len(got) != 1 || got[0].User != 7 {
		t.Fatalf("after reload: %v, want recommendation to user 7", got)
	}
}

func TestEngineFollowsSuppression(t *testing.T) {
	e := testEngine(t, fig1Static(), func(c *Config) {
		c.Follows = func(a, cID graph.VertexID) bool { return true } // suppress everything
	})
	t0 := int64(1_000_000)
	e.Apply(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	if got := e.Apply(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1}); len(got) != 0 {
		t.Fatalf("suppression ignored: %v", got)
	}
}

func TestEngineSharedMetricsRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	e := testEngine(t, fig1Static(), func(c *Config) { c.Metrics = reg })
	if e.Metrics() != reg {
		t.Fatal("engine did not adopt the shared registry")
	}
	e.Apply(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: 1})
	if reg.Counter("engine.events").Value() != 1 {
		t.Fatal("shared registry not updated")
	}
}

func TestEngineConcurrentApply(t *testing.T) {
	e := testEngine(t, fig1Static(), nil)
	var wg sync.WaitGroup
	const writers = 4
	const per = 1_000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Apply(graph.Edge{
					Src: graph.VertexID(10 + w),
					Dst: graph.VertexID(i % 100),
					TS:  int64(i),
				})
			}
		}(w)
	}
	wg.Wait()
	if n := counter(t, e, "engine.events"); n != writers*per {
		t.Fatalf("engine.events = %d, want %d", n, writers*per)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := testEngine(t, fig1Static(), nil)
	if e.Static() == nil || e.Dynamic() == nil {
		t.Fatal("nil accessors")
	}
}
