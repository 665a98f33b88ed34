package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"motifstream/internal/cluster"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/motifdsl"
	"motifstream/internal/partition"
	"motifstream/internal/workload"
)

// The pinned deployment and graph: every workload runs the trajectory
// shape (4 partitions x 2 replicas, batched apply) over the same follow
// graph. The cluster never sees anything but generated edges.
const (
	users      = 20_000
	avgFollows = 30
	graphSeed  = 1
	partitions = 4
	replicas   = 2

	// streamWindow is the detection window, D's retention and the burst
	// window, in stream time. A workload fixes how many events one window
	// holds (eventsPerWindow), so every measured phase spans several
	// windows and D size, sweep work and cut size are flat.
	streamWindow = 60 * time.Second
	// checkpointInterval is the stream time between checkpoint cuts: one
	// cut per 20k events on the 24k-event windows, the pinned trajectory
	// deployment's cadence in events.
	checkpointInterval = 50 * time.Second

	// probeBase starts the reserved ID range of probe targets, far above
	// the users and the stream's tweet IDs.
	probeBase = graph.VertexID(1) << 40
	// anchorsPerPartition is how many probed users each partition has.
	anchorsPerPartition = 64

	// pacedShare of a run's --seconds is the open-loop phase; the rest is
	// the closed-loop phase at the workload's nominal saturation rate.
	pacedShare = 5.0 / 9
)

// workloadSpec fixes one workload. Rates and probe spacing are constants
// of the benchmark: --seconds multiplies event counts only.
type workloadSpec struct {
	name string
	why  string
	// contentFraction of events are retweets/favorites of fresh tweets,
	// which the follow-only programs drop at their edge-type filter.
	contentFraction float64
	// eventsPerWindow sets the stream-time rate: one streamWindow of
	// stream time holds this many events.
	eventsPerWindow int
	// pacedRate is the open-loop offered load, events/s.
	pacedRate float64
	// satRate sizes the closed-loop phase: its event count is satRate x
	// its share of --seconds, so it lasts about that long at the speed
	// the benchmark was written against and is equal work on every commit.
	satRate float64
	// probeEvery splices one probe after this many stream events.
	probeEvery int
	// dsl runs the 100-motif set instead of the hand-written diamond.
	dsl bool
	// networked puts every replica slot in a socket-attached worker.
	networked bool
	// restore adds the kill, ingest-while-dead, restore cycle to the trace.
	restore bool
}

var workloads = []workloadSpec{
	{
		name: "steady", why: "bursty follow stream under the hand-written k=3 diamond: threshold intersect and D/S probes dominate",
		contentFraction: 0.25, eventsPerWindow: 24_000, pacedRate: 5000, satRate: 18_000, probeEvery: 50, restore: true,
	},
	{
		name: "quiet", why: "95% content events return at the diamond's type filter: queue, WAL, D insert/sweep and cut capture do the work; bypass for detection changes",
		contentFraction: 0.95, eventsPerWindow: 24_000, pacedRate: 5000, satRate: 80_000, probeEvery: 50,
	},
	{
		name: "multiquery", why: "steady's stream under 100 DSL motifs in 6 share groups: planner, planned interpreter and the share trie do the work",
		contentFraction: 0.25, eventsPerWindow: 3_000, pacedRate: 600, satRate: 2_500, probeEvery: 15, dsl: true,
	},
	{
		name: "networked", why: "steady with every replica in a worker attached over loopback TCP: transport framing and acks are the delta to steady",
		contentFraction: 0.25, eventsPerWindow: 24_000, pacedRate: 5000, satRate: 18_000, probeEvery: 50, networked: true,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Phases of a run; a probe remembers which one it was published in.
const (
	phaseWarm = iota
	phasePaced
	phaseSat
	numPhases
)

// probe is three follow edges B1,B2,B3 -> C* onto a fresh target, where
// the B's are followings of a. The third completes a k=3 diamond, so
// (a, C*) must be delivered exactly once; under the multi-motif set the
// k=1 and k=2 motifs may deliver it at an earlier edge, and delivery
// deduplication keeps it at exactly once. Latency runs from the due time
// of whichever probe edge triggered the first (a, C*) notification.
type probe struct {
	a     graph.VertexID
	bs    [3]graph.VertexID
	phase int
	// due[i] is when probe edge i was due (paced) or handed to Publish
	// (closed loop), UnixNano; written by the generator before Publish.
	due [3]int64
	// firstNS is when the first (a, C*) notification arrived, trig which
	// probe edge triggered it, count how many arrived in all.
	firstNS atomic.Int64
	trig    atomic.Int32
	count   atomic.Int32
}

// seeds are the generator's two seeds. The background stream is heavy
// tailed: a celebrity among a hot target's recent followers completes
// thousands of diamonds within a few hundred events, and how many such
// storms a stream holds moves allocations per event by 8% and the delivered
// count by a quarter from one stream seed to the next. A gate of a few
// percent therefore needs one pinned stream; --seed decides what is sampled
// from it: where the probes land and which users they target.
type seeds struct {
	stream int64 // workload.GenEventStream's seed
	probe  int64 // --seed
}

// inputs is everything a run feeds the cluster, made from the seeds alone.
type inputs struct {
	static []graph.Edge
	// phases[p] is the edge sequence of phase p, probes spliced in.
	phases [numPhases][]graph.Edge
	probes []*probe
	// probeAt[p][i] is the probe index of phases[p][i], or -1.
	probeAt [numPhases][]int32
}

// events returns the number of edges in phase p, probe edges included.
func (in *inputs) events(p int) int { return len(in.phases[p]) }

// probeAnchor is a user with three followings whose common followers are
// few, so the probe's intersection is cheap and a is always emitted even
// under "limit candidates 4".
type probeAnchor struct {
	a  graph.VertexID
	bs [3]graph.VertexID
}

// probeAnchors picks perPartition anchors for every partition from the
// static graph: a's three least-followed followings, kept only when at
// most four users follow all three.
func probeAnchors(static []graph.Edge, perPartition int) [partitions][]probeAnchor {
	followers := make(map[graph.VertexID][]graph.VertexID)
	followings := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range static {
		followers[e.Dst] = append(followers[e.Dst], e.Src)
		followings[e.Src] = append(followings[e.Src], e.Dst)
	}
	part := partition.NewHashPartitioner(partitions)
	var out [partitions][]probeAnchor
	need := partitions * perPartition
	for a := graph.VertexID(0); a < users && need > 0; a++ {
		pid := part.PartitionOf(a)
		fs := followings[a]
		if len(out[pid]) >= perPartition || len(fs) < 3 {
			continue
		}
		sort.Slice(fs, func(i, j int) bool {
			ni, nj := len(followers[fs[i]]), len(followers[fs[j]])
			if ni != nj {
				return ni < nj
			}
			return fs[i] < fs[j]
		})
		common := graph.IntersectAll([]graph.AdjList{
			graph.NewAdjList(followers[fs[0]]), graph.NewAdjList(followers[fs[1]]), graph.NewAdjList(followers[fs[2]]),
		})
		if len(common) > 4 || !common.Contains(a) {
			continue
		}
		out[pid] = append(out[pid], probeAnchor{a: a, bs: [3]graph.VertexID{fs[0], fs[1], fs[2]}})
		need--
	}
	return out
}

// genInputs builds the static graph and the three phase sequences for one
// (workload, seeds, seconds). The same arguments give the same inputs.
func genInputs(spec workloadSpec, sd seeds, seconds float64) (*inputs, error) {
	in := &inputs{
		static: workload.GenFollowGraph(workload.GraphConfig{
			Users: users, AvgFollows: avgFollows, ZipfS: 1.35, Seed: graphSeed,
		}),
	}
	base := [numPhases]int{
		phaseWarm:  spec.eventsPerWindow,
		phasePaced: int(math.Round(spec.pacedRate * seconds * pacedShare)),
		phaseSat:   int(math.Round(spec.satRate * seconds * (1 - pacedShare))),
	}
	for p := phasePaced; p < numPhases; p++ {
		if base[p] < spec.probeEvery {
			base[p] = spec.probeEvery
		}
	}
	total := base[phaseWarm] + base[phasePaced] + base[phaseSat]
	stream := workload.GenEventStream(workload.StreamConfig{
		Users: users, Events: total,
		Rate:          float64(spec.eventsPerWindow) / streamWindow.Seconds(),
		BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: streamWindow,
		ContentFraction: spec.contentFraction, ZipfS: 1.35, Seed: sd.stream,
	})
	anchors := probeAnchors(in.static, anchorsPerPartition)
	for pid := range anchors {
		if len(anchors[pid]) == 0 {
			return nil, fmt.Errorf("no probe anchor for partition %d", pid)
		}
	}
	// The probe seed turns the anchor rotation and shifts the probes within
	// their spacing.
	turn := int(uint64(sd.probe) % (partitions * anchorsPerPartition))
	shift := int(uint64(sd.probe) % uint64(spec.probeEvery))
	addProbe := func(p int, ts int64) {
		n := len(in.probes)
		pid := (n + turn) % partitions
		an := anchors[pid][((n+turn)/partitions)%len(anchors[pid])]
		in.probes = append(in.probes, &probe{a: an.a, bs: an.bs, phase: p})
		for _, b := range an.bs {
			in.phases[p] = append(in.phases[p], graph.Edge{
				Src: b, Dst: probeBase + graph.VertexID(n), Type: graph.Follow, TS: ts,
			})
			in.probeAt[p] = append(in.probeAt[p], int32(n))
		}
	}
	next := 0
	for p := 0; p < numPhases; p++ {
		for i := 0; i < base[p]; i++ {
			e := stream[next]
			next++
			in.phases[p] = append(in.phases[p], e)
			in.probeAt[p] = append(in.probeAt[p], -1)
			if p != phaseWarm && (i+1+shift)%spec.probeEvery == 0 {
				addProbe(p, e.TS)
			}
		}
		if p == phaseWarm {
			// One probe per partition closes the warm-up: when all four are
			// notified, every partition group has applied the whole window.
			for k := 0; k < partitions; k++ {
				addProbe(p, stream[next-1].TS)
			}
		}
	}
	return in, nil
}

// motifDSL is the 100-motif standing-query set of the T5 trajectory point
// (cmd/benchreport), with its windows scaled to this benchmark's
// one-minute retention: four follow families (thresholds k=2..21), one
// content family with per-type windows (k=2..11) and ten k=1 broadcasts —
// six share groups over 100 programs, four candidates per motif at most.
func motifDSL() string {
	var sb strings.Builder
	families := []struct {
		window string
		fanout int
	}{{"30s", 64}, {"60s", 64}, {"120s", 32}, {"60s", 128}}
	for fi, f := range families {
		for k := 2; k <= 21; k++ {
			fmt.Fprintf(&sb, `
motif "follow-f%d-k%d" {
    match A -> B;
    match B =[follow]=> C within %s;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout %d;
    limit candidates 4;
}`, fi, k, f.window, k, f.fanout)
		}
	}
	for k := 2; k <= 11; k++ {
		fmt.Fprintf(&sb, `
motif "content-k%d" {
    match A -> B;
    match B =[retweet]=> C within 30s;
    match B =[favorite]=> C within 120s;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout 64;
    limit candidates 4;
}`, k, k)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, `
motif "broadcast-%d" {
    match A -> B;
    match B =[follow]=> C;
    where count(B) >= 1;
    emit C to A;
    limit candidates 4;
}`, i)
	}
	return sb.String()
}

const motifCount = 100

// diamondConfig is the hand-written program of steady, quiet and networked.
func diamondConfig() motif.DiamondConfig {
	return motif.DiamondConfig{K: 3, Window: streamWindow, MaxFanout: 64}
}

// newPrograms returns the per-replica program constructor of a workload.
func newPrograms(spec workloadSpec) (func() []motif.Program, error) {
	if !spec.dsl {
		return func() []motif.Program {
			return []motif.Program{motif.NewDiamond(diamondConfig())}
		}, nil
	}
	src := motifDSL()
	progs, err := motifdsl.Compile(src)
	if err != nil {
		return nil, err
	}
	if len(progs) != motifCount {
		return nil, fmt.Errorf("motif set compiled to %d programs, want %d", len(progs), motifCount)
	}
	return func() []motif.Program {
		ps, err := motifdsl.Compile(src)
		if err != nil {
			panic(err) // compiled above from the same source
		}
		return ps
	}, nil
}

// dynamicOptions is every D store's configuration.
func dynamicOptions() dynstore.Options {
	return dynstore.Options{Retention: streamWindow, MaxPerTarget: 1024}
}

// deliveryOptions is suppression-free delivery, so the delivered count is
// a function of the inputs alone.
func deliveryOptions() delivery.Options {
	return delivery.Options{
		SleepStartHour:   delivery.SleepDisabled,
		SleepEndHour:     delivery.SleepDisabled,
		MaxPerUserPerDay: 1 << 30,
	}
}

// clusterConfig is the pinned durable deployment over dir.
func clusterConfig(spec workloadSpec, in *inputs, progs func() []motif.Program, dir string, onNotify func(delivery.Notification)) cluster.Config {
	return cluster.Config{
		Partitions:         partitions,
		Replicas:           replicas,
		StaticEdges:        in.static,
		MaxInfluencers:     200,
		Dynamic:            dynamicOptions(),
		NewPrograms:        progs,
		Delivery:           deliveryOptions(),
		Seed:               1,
		CheckpointDir:      dir + "/ckpt",
		LogDir:             dir + "/log",
		CheckpointInterval: checkpointInterval,
		ApplyBatch:         16,
		ApplyWorkers:       2,
		OnNotify:           onNotify,
		// A slow box must not turn a drain into a loss.
		NetDrainTimeout: 2 * time.Minute,
	}
}
