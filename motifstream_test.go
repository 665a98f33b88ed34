package motifstream_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"motifstream"
)

// fig1 is the static follow graph of the paper's Figure 1.
func fig1() []motifstream.Edge {
	return []motifstream.Edge{
		{Src: 1, Dst: 10, Type: motifstream.Follow},
		{Src: 2, Dst: 10, Type: motifstream.Follow},
		{Src: 2, Dst: 11, Type: motifstream.Follow},
		{Src: 3, Dst: 11, Type: motifstream.Follow},
	}
}

func TestSystemFigure1(t *testing.T) {
	sys, err := motifstream.New(fig1(), motifstream.Options{K: 2, Window: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t0 := motifstream.Millis(time.Date(2014, 9, 1, 12, 0, 0, 0, time.UTC))
	if got := sys.Apply(motifstream.Edge{Src: 10, Dst: 99, Type: motifstream.Follow, TS: t0}); len(got) != 0 {
		t.Fatalf("premature: %v", got)
	}
	got := sys.Apply(motifstream.Edge{Src: 11, Dst: 99, Type: motifstream.Follow, TS: t0 + 1_000})
	if len(got) != 1 || got[0].User != 2 || got[0].Item != 99 {
		t.Fatalf("candidates = %v", got)
	}
	st := sys.Stats()
	if st.Events != 2 || st.Candidates != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RetainedEdges != 2 || st.RetainedBytes == 0 {
		t.Fatalf("D accounting = %+v", st)
	}
	if sys.Metrics() == nil {
		t.Fatal("metrics registry missing")
	}
}

func TestSystemDefaults(t *testing.T) {
	// Zero options select the production configuration: k=3, 10m window.
	sys, err := motifstream.New(fig1(), motifstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	// k=3 requires three distinct B's; only two exist here, so the k=2
	// motif must NOT fire.
	sys.Apply(motifstream.Edge{Src: 10, Dst: 99, Type: motifstream.Follow, TS: t0})
	if got := sys.Apply(motifstream.Edge{Src: 11, Dst: 99, Type: motifstream.Follow, TS: t0 + 1}); len(got) != 0 {
		t.Fatalf("default k should be 3: %v", got)
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := motifstream.New(nil, motifstream.Options{K: 1}); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := motifstream.New(nil, motifstream.Options{
		K: 2, Window: time.Hour, Retention: time.Minute,
	}); err == nil {
		t.Fatal("Retention < Window accepted")
	}
}

// TestPrimaryDiamondValidation holds both facades to one set of rules for
// the primary diamond: a K under 2 and an edge type outside the plan's
// window table are errors, never a panic out of a replica.
func TestPrimaryDiamondValidation(t *testing.T) {
	bad := []struct {
		name  string
		k     int
		types []motifstream.EdgeType
	}{
		{"K=1", 1, nil},
		{"K=-1", -1, nil},
		{"edge type 7", 2, []motifstream.EdgeType{7}},
	}
	for _, c := range bad {
		if _, err := motifstream.New(nil, motifstream.Options{K: c.k, EdgeTypes: c.types}); err == nil {
			t.Errorf("New accepted %s", c.name)
		}
		clu, err := motifstream.NewCluster(fig1(), motifstream.ClusterOptions{Partitions: 2, K: c.k, EdgeTypes: c.types})
		if err == nil {
			clu.Stop()
			t.Errorf("NewCluster accepted %s", c.name)
		}
	}
}

// TestQueueDelayValidation: quantiles that cannot shape a lognormal are an
// error, not a cluster that silently simulates no delay; a zero median is
// the documented way to turn the simulation off.
func TestQueueDelayValidation(t *testing.T) {
	for _, q := range [][2]time.Duration{
		{20 * time.Second, 15 * time.Second},
		{7 * time.Second, 7 * time.Second},
		{-time.Second, 15 * time.Second},
		{0, -time.Second},
	} {
		clu, err := motifstream.NewCluster(fig1(), motifstream.ClusterOptions{
			Partitions: 2, QueueDelayMedian: q[0], QueueDelayP99: q[1],
		})
		if err == nil {
			clu.Stop()
			t.Errorf("NewCluster accepted queue delay median %v, p99 %v", q[0], q[1])
		}
	}
	for _, p99 := range []time.Duration{0, 15 * time.Second} {
		clu, err := motifstream.NewCluster(fig1(), motifstream.ClusterOptions{Partitions: 2, QueueDelayP99: p99})
		if err != nil {
			t.Fatalf("zero median, p99 %v: %v", p99, err)
		}
		clu.Stop()
	}
}

func TestSystemSuppressKnown(t *testing.T) {
	static := append(fig1(), motifstream.Edge{Src: 2, Dst: 99, Type: motifstream.Follow})
	sys, err := motifstream.New(static, motifstream.Options{
		K: 2, Window: 10 * time.Minute, SuppressKnown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	sys.Apply(motifstream.Edge{Src: 10, Dst: 99, Type: motifstream.Follow, TS: t0})
	if got := sys.Apply(motifstream.Edge{Src: 11, Dst: 99, Type: motifstream.Follow, TS: t0 + 1}); len(got) != 0 {
		t.Fatalf("known follow recommended: %v", got)
	}
}

func TestSystemReloadStatic(t *testing.T) {
	sys, err := motifstream.New(fig1(), motifstream.Options{K: 2, Window: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sys.ReloadStatic([]motifstream.Edge{
		{Src: 7, Dst: 10, Type: motifstream.Follow},
		{Src: 7, Dst: 11, Type: motifstream.Follow},
	})
	t0 := int64(1_000_000)
	sys.Apply(motifstream.Edge{Src: 10, Dst: 99, Type: motifstream.Follow, TS: t0})
	got := sys.Apply(motifstream.Edge{Src: 11, Dst: 99, Type: motifstream.Follow, TS: t0 + 1})
	if len(got) != 1 || got[0].User != 7 {
		t.Fatalf("after reload: %v", got)
	}

	// With SuppressKnown the already-follows index reloads with S: once the
	// reloaded edges say 7 follows 99, 99 is no longer recommended to 7,
	// while an item 7 does not follow still is.
	known, err := motifstream.New(fig1(), motifstream.Options{K: 2, Window: 10 * time.Minute, SuppressKnown: true})
	if err != nil {
		t.Fatal(err)
	}
	known.ReloadStatic([]motifstream.Edge{
		{Src: 7, Dst: 10, Type: motifstream.Follow},
		{Src: 7, Dst: 11, Type: motifstream.Follow},
		{Src: 7, Dst: 99, Type: motifstream.Follow},
	})
	known.Apply(motifstream.Edge{Src: 10, Dst: 99, Type: motifstream.Follow, TS: t0})
	if got := known.Apply(motifstream.Edge{Src: 11, Dst: 99, Type: motifstream.Follow, TS: t0 + 1}); len(got) != 0 {
		t.Fatalf("recommended 99, which the reloaded edges say 7 follows: %v", got)
	}
	known.Apply(motifstream.Edge{Src: 10, Dst: 98, Type: motifstream.Follow, TS: t0 + 2})
	if got := known.Apply(motifstream.Edge{Src: 11, Dst: 98, Type: motifstream.Follow, TS: t0 + 3}); len(got) != 1 || got[0].User != 7 {
		t.Fatalf("after reload with SuppressKnown: %v", got)
	}
}

// TestSystemReloadStaticDuringApply reloads S and the already-follows index
// while Apply runs on other goroutines: under -race, the swap must be one
// every concurrent reader sees whole.
func TestSystemReloadStaticDuringApply(t *testing.T) {
	sys, err := motifstream.New(fig1(), motifstream.Options{K: 2, Window: 10 * time.Minute, SuppressKnown: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ts := int64(1_000_000 + i)
				sys.Apply(motifstream.Edge{Src: motifstream.VertexID(10 + w), Dst: motifstream.VertexID(1000 + i), Type: motifstream.Follow, TS: ts})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		sys.ReloadStatic(append(fig1(), motifstream.Edge{Src: 2, Dst: motifstream.VertexID(1000 + i), Type: motifstream.Follow}))
	}
	wg.Wait()
}

func TestSystemExtraProgramsFromDSL(t *testing.T) {
	progs, err := motifstream.CompileMotif(`
motif "content" {
    match A -> B;
    match B =[retweet,favorite]=> C within 10m;
    where count(B) >= 2;
    emit C to A via B;
}`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := motifstream.New(fig1(), motifstream.Options{
		K: 2, Window: 10 * time.Minute, ExtraPrograms: progs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	// Tweet 5000 gets retweeted by both B's: only the DSL program fires.
	sys.Apply(motifstream.Edge{Src: 10, Dst: 5000, Type: motifstream.Retweet, TS: t0})
	got := sys.Apply(motifstream.Edge{Src: 11, Dst: 5000, Type: motifstream.Favorite, TS: t0 + 1})
	if len(got) != 1 || got[0].Program != "content" {
		t.Fatalf("DSL program results = %v", got)
	}
}

// TestSystemExtraProgramsArePlans pins the facade's contract: ExtraPrograms
// takes plans — the triangle closure runs beside the diamond — and New
// rejects anything else with an error naming the entry.
func TestSystemExtraProgramsArePlans(t *testing.T) {
	sys, err := motifstream.New(fig1(), motifstream.Options{
		K: 2, ExtraPrograms: []motifstream.Program{motifstream.NewTriangleClosure(10 * time.Minute)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	sys.Apply(motifstream.Edge{Src: 1, Dst: 500, Type: motifstream.Retweet, TS: t0})
	got := sys.Apply(motifstream.Edge{Src: 3, Dst: 500, Type: motifstream.Retweet, TS: t0 + 1})
	if len(got) != 1 || got[0].Program != "triangle-closure" || got[0].User != 1 || got[0].Item != 3 {
		t.Fatalf("triangle results = %v", got)
	}
	tri := motifstream.NewTriangleClosure(time.Minute)
	if _, err := motifstream.New(fig1(), motifstream.Options{ExtraPrograms: []motifstream.Program{tri, nil}}); err == nil ||
		!strings.Contains(err.Error(), "ExtraPrograms[1]") {
		t.Fatalf("nil entry: err = %v, want one naming ExtraPrograms[1]", err)
	}
}

func TestCompileMotifErrorsArePositioned(t *testing.T) {
	_, err := motifstream.CompileMotif(`motif "x" {
    match A -> B;
}`)
	if err == nil {
		t.Fatal("bad motif compiled")
	}
	if !strings.Contains(err.Error(), "motifdsl:") {
		t.Fatalf("err = %v", err)
	}
}

func TestExplainMotif(t *testing.T) {
	plans, err := motifstream.ExplainMotif(`
motif "a" {
    match A -> B;
    match B => C within 5m;
    where count(B) >= 3;
    emit C to A;
}
motif "b" {
    match A -> B;
    match B => C;
    where count(B) >= 1;
    emit C to A;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %v", plans)
	}
	if !strings.Contains(plans[0], "k=3") || !strings.Contains(plans[1], "fresh-follow") {
		t.Fatalf("plans = %v", plans)
	}
	if _, err := motifstream.ExplainMotif("motif nope"); err == nil {
		t.Fatal("bad source explained")
	}
}

func TestClusterFacadeEndToEnd(t *testing.T) {
	var delivered []motifstream.Notification
	clu, err := motifstream.NewCluster(fig1(), motifstream.ClusterOptions{
		Partitions:        4,
		Replicas:          2,
		K:                 2,
		Window:            10 * time.Minute,
		DisableSleepHours: true,
		OnNotify:          func(n motifstream.Notification) { delivered = append(delivered, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	clu.Publish(motifstream.Edge{Src: 10, Dst: 99, Type: motifstream.Follow, TS: t0})
	clu.Publish(motifstream.Edge{Src: 11, Dst: 99, Type: motifstream.Follow, TS: t0 + 1})
	clu.Stop()

	st := clu.Stats()
	if st.Events != 2 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(delivered) != 1 || delivered[0].Candidate.User != 2 {
		t.Fatalf("delivered = %v", delivered)
	}
	recs, err := clu.RecommendationsFor(2)
	if err != nil || len(recs) != 1 {
		t.Fatalf("reads = %v, %v", recs, err)
	}
	// Failure injection via the facade.
	if err := clu.FailReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := clu.RecoverReplica(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestClusterFacadeRegisterMotifs(t *testing.T) {
	var opts motifstream.ClusterOptions
	if err := opts.RegisterMotifs("motif bogus"); err == nil {
		t.Fatal("bad motif source registered")
	}
	opts = motifstream.ClusterOptions{
		Partitions:        4,
		K:                 2,
		Window:            10 * time.Minute,
		DisableSleepHours: true,
	}
	if err := opts.RegisterMotifs(`
motif "rt" {
    match A -> B;
    match B =[retweet]=> C within 10m;
    where count(B) >= 2;
    emit C to A via B;
}`); err != nil {
		t.Fatal(err)
	}
	clu, err := motifstream.NewCluster(fig1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	clu.Publish(motifstream.Edge{Src: 10, Dst: 777, Type: motifstream.Retweet, TS: t0})
	clu.Publish(motifstream.Edge{Src: 11, Dst: 777, Type: motifstream.Retweet, TS: t0 + 1})
	clu.Stop()
	recs, err := clu.RecommendationsFor(2)
	if err != nil || len(recs) != 1 || recs[0].Program != "rt" {
		t.Fatalf("registered motif did not fire: %v, %v", recs, err)
	}
}

func TestSystemRegisterMotifs(t *testing.T) {
	opts := motifstream.Options{K: 2, Window: 10 * time.Minute}
	if err := opts.RegisterMotifs("motif bogus"); err == nil {
		t.Fatal("bad motif source registered")
	}
	if err := opts.RegisterMotifs(`
motif "rt" {
    match A -> B;
    match B =[retweet]=> C within 10m;
    where count(B) >= 2;
    emit C to A via B;
}`); err != nil {
		t.Fatal(err)
	}
	sys, err := motifstream.New(fig1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t0 := int64(1_000_000)
	sys.Apply(motifstream.Edge{Src: 10, Dst: 777, Type: motifstream.Retweet, TS: t0})
	got := sys.Apply(motifstream.Edge{Src: 11, Dst: 777, Type: motifstream.Retweet, TS: t0 + 1})
	if len(got) != 1 || got[0].Program != "rt" {
		t.Fatalf("registered motif did not fire: %v", got)
	}
}

func TestClusterFacadeValidatesDSL(t *testing.T) {
	opts := motifstream.ClusterOptions{Partitions: 2, K: 2}
	if err := opts.RegisterMotifs("motif bogus"); err == nil {
		t.Fatal("bad motif source accepted")
	}
	// The rejected source must not linger in the set: construction compiles
	// every registered source and would fail on it.
	clu, err := motifstream.NewCluster(fig1(), opts)
	if err != nil {
		t.Fatalf("rejected source poisoned the options: %v", err)
	}
	clu.Stop()
}

func TestWorkloadReexports(t *testing.T) {
	g := motifstream.GenFollowGraph(motifstream.GraphConfig{
		Users: 100, AvgFollows: 5, ZipfS: 1.35, Seed: 1,
	})
	if len(g) == 0 {
		t.Fatal("GenFollowGraph empty")
	}
	s := motifstream.GenEventStream(motifstream.StreamConfig{
		Users: 100, Events: 50, Rate: 10, ZipfS: 1.35, Seed: 1,
	})
	if len(s) != 50 {
		t.Fatal("GenEventStream wrong size")
	}
	if motifstream.DefaultGraphConfig().Users == 0 || motifstream.DefaultStreamConfig().Events == 0 {
		t.Fatal("default configs empty")
	}
}
