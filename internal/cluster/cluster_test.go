package cluster

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

func fig1Static() []graph.Edge {
	return []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10},
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11},
	}
}

func diamondPrograms() []motif.Program {
	return []motif.Program{
		motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute}),
	}
}

// awakeDelivery disables time-of-day suppression so tests are
// deterministic.
func awakeDelivery() delivery.Options {
	return delivery.Options{
		SleepStartHour: 1, SleepEndHour: 1,
		TimezoneOf: func(graph.VertexID) int { return 0 },
	}
}

func testConfig(partitions, replicas int) Config {
	return Config{
		Partitions:  partitions,
		Replicas:    replicas,
		StaticEdges: fig1Static(),
		Dynamic:     dynstore.Options{Retention: time.Hour},
		NewPrograms: diamondPrograms,
		Delivery:    awakeDelivery(),
	}
}

// counter reads the cluster's counter registered under name, failing the
// test on a name the cluster's registry does not hold: a misspelt name must
// not read as a silent zero.
func counter(t testing.TB, c *Cluster, name string) uint64 {
	t.Helper()
	v, ok := c.Metrics().CounterValue(name)
	if !ok {
		t.Fatalf("no counter %q in the cluster's registry", name)
	}
	return v
}

// serving reports whether slot (pid, r) answers reads.
func serving(c *Cluster, pid, r int) bool {
	slot, err := c.slot(pid, r)
	if err != nil {
		return false
	}
	_, ok := slot.Serving()
	return ok
}

// fingerprint is a live partition's state fingerprint (its base's trailer).
func fingerprint(p *partition.Partition) uint32 { return partition.FingerprintOf(p.AppendBase(nil)) }

// fakeReads is a broker.Replica that answers nothing; its value tells
// attachments apart.
type fakeReads int

func (f fakeReads) RecommendationsFor(graph.VertexID) []motif.Candidate { return nil }
func (f fakeReads) TopItems(int) []partition.ItemCount                  { return nil }
func (f fakeReads) ID() int                                             { return int(f) }

// TestSlotServesLiveAttachmentOnly: a slot serves through its newest
// attachment once that attachment is live, and not before — even where the
// attachment it replaced was live — nor while it is failed or detached.
func TestSlotServesLiveAttachmentOnly(t *testing.T) {
	c, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	slot := c.hub.slots[0][0]
	check := func(what string, want broker.Replica) {
		t.Helper()
		got, ok := slot.Serving()
		if want == nil && ok {
			t.Fatalf("%s: slot serves %v, want none", what, got)
		}
		if want != nil && (!ok || got != want) {
			t.Fatalf("%s: slot serves %v (%v), want %v", what, got, ok, want)
		}
	}
	check("born dead", nil)
	a, _, err := c.hub.ReplicaAttached(0, 0, 0, 0, 0, fakeReads(1))
	if err != nil {
		t.Fatal(err)
	}
	check("replaying", nil)
	a.NotifyLive()
	check("live", fakeReads(1))
	b, _, err := c.hub.ReplicaAttached(0, 0, 0, 0, 0, fakeReads(2))
	if err != nil {
		t.Fatal(err)
	}
	check("replaced while live", nil)
	a.NotifyLive()
	check("superseded attachment's live report", nil)
	b.NotifyLive()
	check("replacement live", fakeReads(2))
	if err := c.FailReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	check("failed", nil)
	if err := c.RecoverReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	check("recovered", fakeReads(2))
	b.Close()
	check("detached", nil)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Partitions: 0, NewPrograms: diamondPrograms}); err == nil {
		t.Fatal("0 partitions accepted")
	}
	if _, err := New(Config{Partitions: 1}); err == nil {
		t.Fatal("missing NewPrograms accepted")
	}
}

func TestEndToEndFigure1(t *testing.T) {
	var notes []delivery.Notification
	cfg := testConfig(4, 1)
	cfg.OnNotify = func(n delivery.Notification) { notes = append(notes, n) }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t0 := int64(1_000_000)
	if err := c.Publish(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1_000}); err != nil {
		t.Fatal(err)
	}
	c.Stop()

	st := c.Stats()
	if st.Events != 2 {
		t.Fatalf("Events = %d", st.Events)
	}
	if st.Delivered != 1 {
		t.Fatalf("Delivered = %d (funnel %+v)", st.Delivered, st.Funnel)
	}
	if len(notes) != 1 {
		t.Fatalf("notifications = %v", notes)
	}
	n := notes[0]
	if n.Candidate.User != 2 || n.Candidate.Item != 99 {
		t.Fatalf("notification = %+v", n.Candidate)
	}

	// The read path serves the same candidate through the broker.
	recs, err := c.RecommendationsFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Item != 99 {
		t.Fatalf("RecommendationsFor(2) = %v", recs)
	}
}

// TestFutureDatedEdgeKeepsD: every partition ingests the whole stream, so
// one edge dated a year ahead reaches every replica's sweep clock. It must
// not prune D to its own horizon there: the diamond completed a second
// later is still detected.
func TestFutureDatedEdgeKeepsD(t *testing.T) {
	c, err := New(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t0 := int64(1_000_000_000)
	year := int64(365 * 24 * time.Hour / time.Millisecond)
	for _, e := range []graph.Edge{
		{Src: 10, Dst: 99, Type: graph.Follow, TS: t0},
		{Src: 12, Dst: 98, Type: graph.Follow, TS: t0 + 61_000},
		{Src: 12, Dst: 97, Type: graph.Follow, TS: t0 + year},
		{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 62_000},
	} {
		if err := c.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	c.Stop()
	if raw := c.Stats().Funnel.Raw; raw != 1 {
		t.Fatalf("raw candidates = %d, want 1: a future-dated edge emptied D", raw)
	}
}

func TestPublishAfterStopFails(t *testing.T) {
	c, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	if err := c.Publish(graph.Edge{Src: 1, Dst: 2}); err == nil {
		t.Fatal("Publish after Stop succeeded")
	}
	c.Stop() // idempotent
}

func TestReplicasDoNotDuplicateDeliveries(t *testing.T) {
	// With 3 replicas, each detects the same candidates; only the
	// emitter's copy must reach delivery.
	cfg := testConfig(2, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t0 := int64(1_000_000)
	c.Publish(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	c.Publish(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1})
	c.Stop()
	st := c.Stats()
	if st.Funnel.Raw != 1 {
		t.Fatalf("raw candidates = %d, want 1 (no replica duplication)", st.Funnel.Raw)
	}
}

// TestQueueDelayFeedsLatency: an event crosses two simulated queue hops —
// firehose to partition, partition to push gateway — whichever side of a
// socket its replica runs on, so the same stream reports the same end-to-end
// latency in process and through a loopback hub + worker. Fixed hops pin the
// sum, which a draw keyed to the wrong offset would still reach; the
// lognormal case pins every notification's (DeliveredAtMS, Latency) to both
// hops' draws at its trigger's offset, in process and over TCP.
func TestQueueDelayFeedsLatency(t *testing.T) {
	base := testConfig(1, 1)
	base.HopDelay = Fixed{D: 3500 * time.Millisecond}
	deployments := map[string]func(t *testing.T, cfg Config) (hub *Cluster, join func()){
		"inproc": func(t *testing.T, cfg Config) (*Cluster, func()) {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			return c, func() {}
		},
		"tcp": func(t *testing.T, cfg Config) (*Cluster, func()) {
			hcfg := cfg
			hcfg.Listen, hcfg.LogDir, hcfg.CheckpointDir = "127.0.0.1:0", t.TempDir(), t.TempDir()
			hub, err := New(hcfg)
			if err != nil {
				t.Fatal(err)
			}
			hub.Start()
			_, join := startWorker(t, workerConfig(t, hcfg, hub.ListenAddr(), [][2]int{{0, 0}}))
			awaitAllLive(t, hub)
			return hub, join
		},
	}
	for name, deploy := range deployments {
		t.Run(name, func(t *testing.T) {
			c, join := deploy(t, base)
			t0 := int64(1_000_000)
			c.Publish(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
			c.Publish(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1})
			c.Shutdown()
			join()
			st := c.Stats()
			if st.Delivered != 1 {
				t.Fatalf("Delivered = %d", st.Delivered)
			}
			// End-to-end latency = 3.5s ingest hop + 3.5s delivery hop = 7s; the
			// histogram reports bucket upper bounds, so allow the bucket width.
			if st.E2ELatency.P50 < 7*time.Second || st.E2ELatency.P50 > 9*time.Second {
				t.Fatalf("latency p50 = %v, want ~7s", st.E2ELatency.P50)
			}
		})
	}

	t.Run("lognormal", func(t *testing.T) {
		heavy := base
		heavy.HopDelay = LognormalFromQuantiles(3500*time.Millisecond, 7500*time.Millisecond)
		heavy.Seed = 7
		heavy.Delivery.MaxPerUserPerDay = 1 << 20
		type latency struct {
			at  int64
			lat time.Duration
		}
		sorted := func(ls []latency) []latency {
			sort.Slice(ls, func(i, j int) bool {
				return ls[i].at < ls[j].at || ls[i].at == ls[j].at && ls[i].lat < ls[j].lat
			})
			return ls
		}
		// Each item's second follow completes user 2's diamond: its trigger
		// is offset 2i+1.
		const items = 40
		t0 := int64(1_000_000)
		var want []latency
		ingest, deliver := newHop(heavy.HopDelay, heavy.Seed), newHop(heavy.HopDelay, heavy.Seed+1)
		for i := 0; i < items; i++ {
			off := uint64(2*i + 1)
			ms := (ingest.delay(off) + deliver.delay(off)).Milliseconds()
			want = append(want, latency{t0 + int64(off) + ms, time.Duration(ms) * time.Millisecond})
		}
		want = sorted(want)
		for _, name := range []string{"inproc", "tcp"} {
			cfg := heavy
			var got []latency
			cfg.OnNotify = func(n delivery.Notification) { got = append(got, latency{n.DeliveredAtMS, n.Latency}) }
			c, join := deployments[name](t, cfg)
			for i := 0; i < items; i++ {
				item := graph.VertexID(100 + i)
				c.Publish(graph.Edge{Src: 10, Dst: item, Type: graph.Follow, TS: t0 + int64(2*i)})
				c.Publish(graph.Edge{Src: 11, Dst: item, Type: graph.Follow, TS: t0 + int64(2*i+1)})
			}
			c.Shutdown()
			join()
			if got = sorted(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: notifications (DeliveredAtMS, Latency)\n got %v\nwant %v", name, got, want)
			}
		}
	})
}

func TestFailoverPromotesEmitter(t *testing.T) {
	cfg := testConfig(1, 2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t0 := int64(1_000_000)
	// First motif completes with replica 0 as emitter.
	c.Publish(graph.Edge{Src: 10, Dst: 99, Type: graph.Follow, TS: t0})
	c.Publish(graph.Edge{Src: 11, Dst: 99, Type: graph.Follow, TS: t0 + 1})
	// Fail replica 0 of partition 0: replica 1 takes over emission.
	if err := c.FailReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	// Second motif on a fresh item still gets delivered.
	c.Publish(graph.Edge{Src: 10, Dst: 55, Type: graph.Follow, TS: t0 + 2})
	c.Publish(graph.Edge{Src: 11, Dst: 55, Type: graph.Follow, TS: t0 + 3})
	c.Stop()
	st := c.Stats()
	if st.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2 (continuity across failover; funnel %+v)",
			st.Delivered, st.Funnel)
	}
	// Reads survive too.
	if _, err := c.RecommendationsFor(2); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	// Recovery is accepted.
	if err := c.RecoverReplica(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFailReplicaValidation(t *testing.T) {
	c, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailReplica(5, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := c.FailReplica(0, 5); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
}

func TestReplicaAccessor(t *testing.T) {
	c, err := New(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Replica(1, 1)
	if err != nil || p == nil {
		t.Fatalf("Replica(1,1) = %v, %v", p, err)
	}
	if p.ID() != 1 {
		t.Fatalf("replica partition ID = %d", p.ID())
	}
	if _, err := c.Replica(9, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if _, err := c.Replica(0, 9); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
}

// TestPartitionedEqualsSingleNode is the system-level locality check: a
// 1-partition and an 8-partition cluster deliver the same candidate set.
func TestPartitionedEqualsSingleNode(t *testing.T) {
	static := fig1Static()
	static = append(static,
		graph.Edge{Src: 4, Dst: 10}, graph.Edge{Src: 4, Dst: 11},
		graph.Edge{Src: 5, Dst: 10}, graph.Edge{Src: 5, Dst: 11},
	)
	t0 := int64(1_000_000)
	var events []graph.Edge
	for i, item := range []graph.VertexID{90, 91, 92} {
		ts := t0 + int64(i)*10_000
		events = append(events,
			graph.Edge{Src: 10, Dst: item, Type: graph.Follow, TS: ts},
			graph.Edge{Src: 11, Dst: item, Type: graph.Follow, TS: ts + 1},
		)
	}

	collect := func(partitions int) map[[2]graph.VertexID]bool {
		got := map[[2]graph.VertexID]bool{}
		cfg := Config{
			Partitions:  partitions,
			StaticEdges: static,
			Dynamic:     dynstore.Options{Retention: time.Hour},
			NewPrograms: diamondPrograms,
			Delivery: delivery.Options{
				SleepStartHour: 1, SleepEndHour: 1,
				MaxPerUserPerDay: 1 << 30,
				TimezoneOf:       func(graph.VertexID) int { return 0 },
			},
			OnNotify: func(n delivery.Notification) {
				got[[2]graph.VertexID{n.Candidate.User, n.Candidate.Item}] = true
			},
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		for _, e := range events {
			if err := c.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		c.Stop()
		return got
	}

	single := collect(1)
	sharded := collect(8)
	if len(single) == 0 {
		t.Fatal("vacuous: single-node delivered nothing")
	}
	if len(single) != len(sharded) {
		t.Fatalf("single %v != sharded %v", single, sharded)
	}
	for k := range single {
		if !sharded[k] {
			t.Fatalf("sharded run missing %v", k)
		}
	}
}

func TestTopItemsFanOut(t *testing.T) {
	// Two users in different partitions both get item 99 recommended;
	// the fan-out gather must merge the per-partition counts.
	static := fig1Static()
	static = append(static,
		graph.Edge{Src: 4, Dst: 10}, graph.Edge{Src: 4, Dst: 11},
		graph.Edge{Src: 5, Dst: 10}, graph.Edge{Src: 5, Dst: 11},
	)
	c2, err := New(Config{
		Partitions:  4,
		StaticEdges: static,
		Dynamic:     dynstore.Options{Retention: time.Hour},
		NewPrograms: diamondPrograms,
		Delivery:    awakeDelivery(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	t0 := int64(1_000_000)
	for i, item := range []graph.VertexID{99, 99, 77} {
		ts := t0 + int64(i)*100_000
		c2.Publish(graph.Edge{Src: 10, Dst: item, Type: graph.Follow, TS: ts})
		c2.Publish(graph.Edge{Src: 11, Dst: item, Type: graph.Follow, TS: ts + 1})
	}
	c2.Stop()
	top, err := c2.TopItems(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) < 2 || top[0].Item != 99 {
		t.Fatalf("TopItems = %v, want 99 first", top)
	}
	if top[0].Count <= top[1].Count {
		t.Fatalf("counts not descending: %v", top)
	}
	// With a replica down in every group the fan-out errors.
	c3, err := New(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	c3.Start()
	c3.Stop()
	c3.FailReplica(0, 0)
	if _, err := c3.TopItems(5); err == nil {
		t.Fatal("fan-out with a dead group should error")
	}
}
