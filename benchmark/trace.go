package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"motifstream/internal/core"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/motifdsl"
	"motifstream/internal/partition"
	"motifstream/internal/queue"
	"motifstream/internal/statstore"
)

// The layer replay feeds a workload's exact edge sequence, on one
// goroutine, through each layer's public functions, in chunks of
// replayChunk calls timed by one clock pair each. A parent's children are
// shadow replays of the same arguments on stores of their own, so a
// parent's self time is its span minus its children's.
const replayChunk = 1024

// span is one timed chunk of calls into one layer.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Parent indexes the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// FromEvent..ToEvent is the range of workload events the chunk covers.
	FromEvent int `json:"from_event"`
	ToEvent   int `json:"to_event"`
}

// tracer keeps spans in memory and sums time per layer name.
type tracer struct {
	spans []span
	total map[string]time.Duration
}

func newTracer() *tracer { return &tracer{total: map[string]time.Duration{}} }

func (t *tracer) begin(name string, parent, from, to int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, FromEvent: from, ToEvent: to, StartNS: sinceEpoch()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	s := &t.spans[i]
	s.EndNS = sinceEpoch()
	d := time.Duration(s.EndNS - s.StartNS)
	t.total[s.Name] += d
	return d
}

func (t *tracer) ns(name string) float64 { return float64(t.total[name]) }

// write stores the spans and the per-layer metrics as one JSON file.
func (t *tracer) write(path string, res *runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Run   *runResult `json:"run"`
		Spans []span     `json:"spans"`
	}{res, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// programSet evaluates a workload's programs through the motif package's
// own entry points: the hand-written diamond directly, a DSL set through
// one planned group per share key, as the engine's trie arranges them.
type programSet struct {
	progs  []motif.Program
	groups []*motif.PlannedGroup
	slots  [][]int
}

func newProgramSet(progs []motif.Program) (*programSet, error) {
	ps := &programSet{progs: progs}
	byKey := map[string][]int{}
	var keys []string
	for i, p := range progs {
		pp, ok := p.(*motif.PlannedProgram)
		if !ok {
			continue
		}
		if len(byKey[pp.ShareKey()]) == 0 {
			keys = append(keys, pp.ShareKey())
		}
		byKey[pp.ShareKey()] = append(byKey[pp.ShareKey()], i)
	}
	for _, k := range keys {
		members := make([]*motif.PlannedProgram, len(byKey[k]))
		for j, i := range byKey[k] {
			members[j] = progs[i].(*motif.PlannedProgram)
		}
		g, err := motif.NewPlannedGroup(members)
		if err != nil {
			return nil, err
		}
		ps.groups = append(ps.groups, g)
		ps.slots = append(ps.slots, byKey[k])
	}
	return ps, nil
}

// onEdge returns how many candidates e completes.
func (ps *programSet) onEdge(ctx *motif.Context, e graph.Edge, s *motif.Scratch) int {
	n := 0
	if len(ps.groups) > 0 {
		res := s.ResultSlots(len(ps.progs))
		for gi, g := range ps.groups {
			g.DetectInto(ctx, e, s, res, ps.slots[gi])
		}
		for i := range res {
			n += len(res[i])
			res[i] = nil
		}
		return n
	}
	for _, p := range ps.progs {
		if sp, ok := p.(motif.ScratchProgram); ok {
			n += len(sp.OnEdgeScratch(ctx, e, s))
		} else {
			n += len(p.OnEdge(ctx, e))
		}
	}
	return n
}

// plannedDiamondDSL is diamondConfig written in the DSL: the planned
// counterpart of the hand-written program.
const plannedDiamondDSL = `
motif "diamond" {
    match A -> B;
    match B =[follow]=> C within 60s;
    where count(B) >= 3;
    emit C to A via B;
    limit fanout 64;
}`

// shadowStore is a D store of a shadow replay with its own sweep clock,
// swept on chunk boundaries at the engine's one-minute cadence.
type shadowStore struct {
	d         *dynstore.Store
	lastSweep int64
}

func newShadowStore() *shadowStore { return &shadowStore{d: dynstore.New(dynamicOptions())} }

func (s *shadowStore) sweepDue(nowMS int64) bool {
	if s.lastSweep == 0 {
		s.lastSweep = nowMS
	}
	return nowMS-s.lastSweep >= time.Minute.Milliseconds()
}

func (s *shadowStore) sweepIfDue(nowMS int64) {
	if s.sweepDue(nowMS) {
		s.lastSweep = nowMS
		s.d.Sweep(nowMS)
	}
}

// replayResult is what the layer replay measured and counted.
type replayResult struct {
	layer     map[string]float64
	delivered uint64
	// layersNS is the CPU the layers explain per event: one publish, the
	// apply on both replicas of every partition, the offers.
	layersNS float64
}

// oracleDelivered replays edges sequentially through partition.Apply and
// delivery.Pipeline.Offer and returns how many notifications of items other
// than probe targets it delivers: the reference for what the cluster
// delivers from the stream.
func oracleDelivered(spec workloadSpec, in *inputs) (uint64, error) {
	progs, err := newPrograms(spec)
	if err != nil {
		return 0, err
	}
	parts, _, err := buildPartitions(in, progs)
	if err != nil {
		return 0, err
	}
	pipe := delivery.NewPipeline(deliveryOptions())
	var n uint64
	for p := 0; p < numPhases; p++ {
		for _, e := range in.phases[p] {
			for _, part := range parts {
				for _, c := range part.Apply(e) {
					if _, note := pipe.Offer(c, 0); note != nil && c.Item < probeBase {
						n++
					}
				}
			}
		}
	}
	return n, nil
}

// buildPartitions builds the four partitions as the cluster does, timing
// the S builds.
func buildPartitions(in *inputs, progs func() []motif.Program) ([]*partition.Partition, time.Duration, error) {
	part := partition.NewHashPartitioner(partitions)
	parts := make([]*partition.Partition, partitions)
	var build time.Duration
	for pid := range parts {
		t0 := time.Now()
		b := &statstore.Builder{
			Keep:           func(a graph.VertexID) bool { return part.PartitionOf(a) == pid },
			MaxInfluencers: 200,
		}
		snap := b.Build(in.static)
		build += time.Since(t0)
		p, err := partition.New(partition.Config{
			ID: pid, StaticEdges: in.static, Partitioner: part, MaxInfluencers: 200,
			StaticSnapshot: snap,
			Dynamic:        dynamicOptions(),
			Programs:       progs(),
		})
		if err != nil {
			return nil, 0, err
		}
		parts[pid] = p
	}
	return parts, build, nil
}

// applyChunk runs edges through p as the cluster's batched path does:
// batches of 16 ended early where a sweep is due, then commit and sweep in
// stream order. out[i] receives edge i's candidates.
func applyChunk(p *partition.Partition, edges []graph.Edge, out [][]motif.Candidate) {
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && j-i < 16 {
			j++
			if p.SweepDue(edges[j-1].TS) {
				break
			}
		}
		p.DetectBatch(edges[i:j], out[i:j])
		for k := i; k < j; k++ {
			p.Commit(out[k])
			p.MaybeSweep(edges[k].TS)
		}
		i = j
	}
}

// diamondShadow re-derives the hand-written diamond's call sequence on a
// D store of its own, one layer per pass over a chunk so that each layer
// is timed by one clock pair: D insert and recent-B scan interleaved per
// event (the scan must see D as of its own event), then the S lookups,
// then the threshold intersects. Arenas carry each pass's results to the
// next.
type diamondShadow struct {
	d       *shadowStore
	static  *statstore.Store
	follows func(a, c graph.VertexID) bool
	cfg     motif.DiamondConfig

	recent  []dynstore.InEdge // every event's recent B's, back to back
	recEnd  []int             // recent[recEnd[i-1]:recEnd[i]] is event i's
	lists   []graph.AdjList   // every qualifying event's follower lists
	listEnd []int
	listEv  []int // the event each group of lists belongs to
	out     graph.AdjList
	gs      graph.Scratch

	probes, lookups, calls, callLists, callElems int
}

// replay runs one chunk through the call sequence and returns how many
// candidates it completes.
func (s *diamondShadow) replay(tr *tracer, parent, from, to int, edges []graph.Edge) int {
	window := s.cfg.Window.Milliseconds()
	s.recent, s.recEnd = s.recent[:0], s.recEnd[:0]
	sp := tr.begin("dynstore.insert+recent", parent, from, to)
	for _, e := range edges {
		s.d.d.Insert(e)
		if e.Type == graph.Follow {
			s.recent = s.d.d.RecentLimitInto(s.recent, e.Dst, e.TS-window, s.cfg.MaxFanout)
			s.probes++
		}
		s.recEnd = append(s.recEnd, len(s.recent))
	}
	tr.end(sp)
	s.d.sweepIfDue(edges[len(edges)-1].TS)

	s.lists, s.listEnd, s.listEv = s.lists[:0], s.listEnd[:0], s.listEv[:0]
	sp = tr.begin("statstore.followers", parent, from, to)
	for i, start := 0, 0; i < len(edges); i++ {
		rs := s.recent[start:s.recEnd[i]]
		start = s.recEnd[i]
		if len(rs) < s.cfg.K {
			continue
		}
		for _, r := range rs {
			s.lookups++
			if l := s.static.Followers(r.B); len(l) > 0 {
				s.lists = append(s.lists, l)
			}
		}
		s.listEnd = append(s.listEnd, len(s.lists))
		s.listEv = append(s.listEv, i)
	}
	tr.end(sp)

	sp = tr.begin("graph.threshold", parent, from, to)
	cands := 0
	for j, start := 0, 0; j < len(s.listEnd); j++ {
		ls := s.lists[start:s.listEnd[j]]
		start = s.listEnd[j]
		if len(ls) < s.cfg.K {
			continue
		}
		s.calls++
		s.callLists += len(ls)
		for _, l := range ls {
			s.callElems += len(l)
		}
		s.out = graph.ThresholdIntersectInto(s.out[:0], ls, s.cfg.K, &s.gs)
		c := edges[s.listEv[j]].Dst
		for _, a := range s.out {
			if a != c && !s.follows(a, c) {
				cands++
			}
		}
	}
	tr.end(sp)
	return cands
}

// metrics derives the call sequence's per-layer metrics; insertNS is the
// insert-only shadow's total, apply0 partition 0's partition.apply total.
func (s *diamondShadow) metrics(layer map[string]float64, tr *tracer, insertNS, apply0, events float64) {
	if s.probes > 0 {
		layer["dynstore.recent_ns_per_probe"] = (tr.ns("dynstore.insert+recent") - insertNS) / float64(s.probes)
	}
	if s.lookups > 0 {
		layer["statstore.followers_ns_per_lookup"] = tr.ns("statstore.followers") / float64(s.lookups)
	}
	if s.calls > 0 {
		layer["graph.threshold_calls_per_event"] = float64(s.calls) / events
		layer["graph.threshold_ns_per_call"] = tr.ns("graph.threshold") / float64(s.calls)
		layer["graph.threshold_lists_per_call"] = float64(s.callLists) / float64(s.calls)
		layer["graph.threshold_elems_per_call"] = float64(s.callElems) / float64(s.calls)
		layer["graph.threshold_share"] = tr.ns("graph.threshold") / apply0
	}
}

// layerReplay produces the per-layer metrics of one workload's inputs.
func layerReplay(tr *tracer, spec workloadSpec, in *inputs, stateRoot string) (*replayResult, error) {
	layer := map[string]float64{}
	var all []graph.Edge
	for p := 0; p < numPhases; p++ {
		all = append(all, in.phases[p]...)
	}
	n := float64(len(all))

	if err := replayQueue(tr, layer, all, stateRoot); err != nil {
		return nil, err
	}

	// motifdsl: planning cost of the standing-query set.
	t0 := time.Now()
	if _, err := motifdsl.Compile(motifDSL()); err != nil {
		return nil, err
	}
	layer["motifdsl.compile_us_per_motif"] = float64(time.Since(t0)) / 1e3 / motifCount

	progs, err := newPrograms(spec)
	if err != nil {
		return nil, err
	}
	parts, build, err := buildPartitions(in, progs)
	if err != nil {
		return nil, err
	}
	layer["statstore.build_s"] = build.Seconds()
	var sMem uint64
	for _, p := range parts {
		sMem += p.Engine().Static().Snapshot().MemoryBytes()
	}
	layer["statstore.mem_mb"] = float64(sMem) / (1 << 20)
	layer["core.shared_fraction"] = parts[0].Engine().Sharing().SharedFraction()

	// Shadows of partition 0: an engine, and the motif package's entry
	// points over stores of their own.
	static := parts[0].Engine().Static()
	hp := partition.NewHashPartitioner(partitions)
	followsOf := map[graph.VertexID]graph.AdjList{}
	{
		byA := map[graph.VertexID][]graph.VertexID{}
		for _, e := range in.static {
			if hp.PartitionOf(e.Src) == 0 {
				byA[e.Src] = append(byA[e.Src], e.Dst)
			}
		}
		for a, bs := range byA {
			followsOf[a] = graph.NewAdjList(bs)
		}
	}
	follows := func(a, c graph.VertexID) bool { return followsOf[a].Contains(c) }
	eng, err := core.NewEngine(core.Config{Static: static, Dynamic: dynstore.New(dynamicOptions()), Programs: progs(), Follows: follows})
	if err != nil {
		return nil, err
	}
	set, err := newProgramSet(progs())
	if err != nil {
		return nil, err
	}
	hand, err := newProgramSet([]motif.Program{motif.NewDiamond(diamondConfig())})
	if err != nil {
		return nil, err
	}
	plannedProg, err := motifdsl.CompileOne(plannedDiamondDSL)
	if err != nil {
		return nil, err
	}
	planned, err := newProgramSet([]motif.Program{plannedProg})
	if err != nil {
		return nil, err
	}
	insD, setD, handD, planD := newShadowStore(), newShadowStore(), newShadowStore(), newShadowStore()
	dia := &diamondShadow{d: newShadowStore(), static: static, follows: follows, cfg: diamondConfig()}
	ctxOf := func(s *shadowStore) *motif.Context {
		return &motif.Context{S: static, D: s.d, Follows: follows}
	}
	setCtx, handCtx, planCtx := ctxOf(setD), ctxOf(handD), ctxOf(planD)
	scratch := motif.GetScratch()
	defer motif.PutScratch(scratch)

	pipe := delivery.NewPipeline(deliveryOptions())
	outs := make([][][]motif.Candidate, partitions)
	for i := range outs {
		outs[i] = make([][]motif.Candidate, replayChunk)
	}
	engOut := make([][]motif.Candidate, replayChunk)
	var (
		perPart        [partitions]time.Duration
		cands, offered int
		sweeps, cuts   int
		deltaBytes     int64
		lastCut        int64
	)
	cutEveryMS := checkpointInterval.Milliseconds()

	for from := 0; from < len(all); from += replayChunk {
		to := from + replayChunk
		if to > len(all) {
			to = len(all)
		}
		edges := all[from:to]
		lastTS := edges[len(edges)-1].TS

		var apply0 int
		for pid, p := range parts {
			sp := tr.begin("partition.apply", -1, from, to)
			applyChunk(p, edges, outs[pid][:len(edges)])
			perPart[pid] += tr.end(sp)
			if pid == 0 {
				apply0 = sp
			}
		}

		// core: the same chunk through a shadow engine.
		sp := tr.begin("core.apply", apply0, from, to)
		eng.ApplyBatch(edges, engOut[:len(edges)])
		tr.end(sp)
		coreSpan := sp
		engCands, p0Cands := 0, 0
		for i := range edges {
			engCands += len(engOut[i])
			p0Cands += len(outs[0][i])
			engOut[i] = nil
		}
		if engCands != p0Cands {
			return nil, fmt.Errorf("events %d..%d: shadow engine found %d candidates, partition.Apply %d", from, to, engCands, p0Cands)
		}

		// dynstore: inserts alone.
		sp = tr.begin("dynstore.insert", coreSpan, from, to)
		for _, e := range edges {
			insD.d.Insert(e)
		}
		tr.end(sp)
		if insD.sweepDue(lastTS) {
			sp = tr.begin("dynstore.sweep", coreSpan, from, to)
			insD.sweepIfDue(lastTS)
			tr.end(sp)
			sweeps++
		}

		// motif: insert + the workload's programs; the hand-written and the
		// planned diamond on the same inputs.
		runSet := func(name string, ps *programSet, ctx *motif.Context, parent int) (sp, got int) {
			sp = tr.begin(name, parent, from, to)
			for _, e := range edges {
				ctx.D.Insert(e)
				got += ps.onEdge(ctx, e, scratch)
			}
			tr.end(sp)
			return sp, got
		}
		onSpan, got := runSet("motif.insert+onedge", set, setCtx, coreSpan)
		if got != p0Cands {
			return nil, fmt.Errorf("events %d..%d: shadow programs found %d candidates, partition.Apply %d", from, to, got, p0Cands)
		}
		if spec.dsl {
			runSet("motif.insert+handwritten", hand, handCtx, -1)
			handD.sweepIfDue(lastTS)
		}
		runSet("motif.insert+planned", planned, planCtx, -1)
		setD.sweepIfDue(lastTS)
		planD.sweepIfDue(lastTS)

		if !spec.dsl {
			if got := dia.replay(tr, onSpan, from, to, edges); got != p0Cands {
				return nil, fmt.Errorf("events %d..%d: shadow call sequence found %d candidates, partition.Apply %d", from, to, got, p0Cands)
			}
		}

		// delivery: every partition's candidates, in event order.
		nOffer := 0
		sp = tr.begin("delivery.offer", -1, from, to)
		for pid := range parts {
			for i := range edges {
				for _, c := range outs[pid][i] {
					pipe.Offer(c, 0)
					nOffer++
				}
				cands += len(outs[pid][i])
				outs[pid][i] = nil
			}
		}
		tr.end(sp)
		offered += nOffer

		// partition: checkpoint cuts, on chunk boundaries.
		if lastCut == 0 {
			lastCut = edges[0].TS
		}
		if lastTS-lastCut >= cutEveryMS {
			lastCut = lastTS
			for _, p := range parts {
				sp := tr.begin("partition.capture_delta", -1, from, to)
				d := p.CaptureDelta()
				tr.end(sp)
				nb, err := d.WriteTo(io.Discard)
				if err != nil {
					return nil, err
				}
				deltaBytes += nb
				cuts++
			}
		}
	}

	// Metrics from the totals.
	apply := tr.ns("partition.apply")
	apply0 := float64(perPart[0])
	insert := tr.ns("dynstore.insert")
	onedge := tr.ns("motif.insert+onedge") - insert
	layer["partition.apply_ns_per_event"] = apply / n
	var maxPart time.Duration
	for _, d := range perPart {
		if d > maxPart {
			maxPart = d
		}
	}
	layer["partition.skew"] = float64(maxPart) / (apply / partitions)
	layer["partition.self_ns_per_event"] = (apply0 - tr.ns("core.apply")) / n
	layer["core.apply_ns_per_event"] = tr.ns("core.apply") / n
	layer["core.self_ns_per_event"] = (tr.ns("core.apply") - insert - onedge) / n
	layer["motif.onedge_ns_per_event"] = onedge / n
	layer["motif.candidates_per_event"] = float64(cands) / n
	handNS := onedge
	if spec.dsl {
		handNS = tr.ns("motif.insert+handwritten") - insert
	}
	layer["motif.planned_over_handwritten"] = (tr.ns("motif.insert+planned") - insert) / handNS
	layer["dynstore.insert_ns_per_event"] = insert / n
	if sweeps > 0 {
		layer["dynstore.sweep_ms_per_sweep"] = tr.ns("dynstore.sweep") / 1e6 / float64(sweeps)
	}
	layer["dynstore.edges_live"] = float64(parts[0].Engine().Dynamic().Stats().Edges)
	if !spec.dsl {
		dia.metrics(layer, tr, insert, apply0, n)
	}
	if cuts > 0 {
		layer["partition.capture_delta_us_per_cut"] = tr.ns("partition.capture_delta") / 1e3 / float64(cuts)
		layer["partition.delta_bytes_per_cut"] = float64(deltaBytes) / float64(cuts)
	}
	st := pipe.Stats()
	if offered > 0 {
		layer["delivery.offer_ns_per_candidate"] = tr.ns("delivery.offer") / float64(offered)
		layer["delivery.delivered_ratio"] = float64(st.Delivered) / float64(offered)
	}
	layersNS := layer["queue.publish_ns_per_event"] + replicas*apply/n + tr.ns("delivery.offer")/n
	return &replayResult{layer: layer, delivered: st.Delivered, layersNS: layersNS}, nil
}

// replayQueue measures the firehose: publish into a retained topic over a
// WAL with the deployment's eight subscribers attached, the WAL append
// alone, and a replay of the whole log.
func replayQueue(tr *tracer, layer map[string]float64, all []graph.Edge, stateRoot string) error {
	dir, err := os.MkdirTemp(stateRoot, "queue-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func(sub string) (*queue.WAL[graph.Edge], error) {
		return queue.OpenWAL(queue.WALOptions[graph.Edge]{
			Dir: filepath.Join(dir, sub), Marshal: marshalEdge, Unmarshal: unmarshalEdge,
		})
	}
	wal, err := open("topic")
	if err != nil {
		return err
	}
	topic := queue.NewTopicWithLog[graph.Edge](queue.Options{Name: "firehose", Buffer: 4096, Ordered: true}, wal)
	var drain sync.WaitGroup
	for i := 0; i < partitions*replicas; i++ {
		sub := topic.Subscribe()
		drain.Add(1)
		go func() {
			defer drain.Done()
			for range sub {
			}
		}()
	}
	shadow, err := open("append")
	if err != nil {
		return err
	}
	for from := 0; from < len(all); from += replayChunk {
		to := from + replayChunk
		if to > len(all) {
			to = len(all)
		}
		pub := tr.begin("queue.publish", -1, from, to)
		for _, e := range all[from:to] {
			if err := topic.Publish(e, 0); err != nil {
				return err
			}
		}
		tr.end(pub)
		sp := tr.begin("queue.wal_append", pub, from, to)
		for _, e := range all[from:to] {
			if err := shadow.Append(queue.Record[graph.Edge]{Msg: e}); err != nil {
				return err
			}
		}
		tr.end(sp)
	}
	n := float64(len(all))
	layer["queue.publish_ns_per_event"] = tr.ns("queue.publish") / n
	layer["queue.wal_append_ns_per_event"] = tr.ns("queue.wal_append") / n

	// The read use of the log: replay everything from offset 0.
	sub, err := topic.SubscribeFrom(0)
	if err != nil {
		return err
	}
	sp := tr.begin("queue.replay", -1, 0, len(all))
	for got := 0; got < len(all); got++ {
		if _, ok := <-sub; !ok {
			return fmt.Errorf("queue replay ended after %d of %d events", got, len(all))
		}
	}
	layer["queue.replay_events_per_s"] = n / tr.end(sp).Seconds()
	topic.Close()
	drain.Wait()
	if err := wal.Close(); err != nil {
		return err
	}
	if err := shadow.Close(); err != nil {
		return err
	}
	return nil
}

// deploymentLog reopens the firehose log a deployment left behind with this
// file's copy of the record codec and holds every retained record against
// the edge published at its offset: the copy the replay appends with is
// then the format the cluster writes. It returns the bytes the retained
// segments hold per record.
func deploymentLog(dir string, in *inputs) (float64, error) {
	wal, err := queue.OpenWAL(queue.WALOptions[graph.Edge]{Dir: dir, Marshal: marshalEdge, Unmarshal: unmarshalEdge})
	if err != nil {
		return 0, err
	}
	defer wal.Close() // only read
	var all []graph.Edge
	for p := 0; p < numPhases; p++ {
		all = append(all, in.phases[p]...)
	}
	start, end := wal.Start(), wal.End()
	if end != uint64(len(all)) || start >= end {
		return 0, fmt.Errorf("log holds offsets %d..%d, %d events were published", start, end, len(all))
	}
	recs := make([]queue.Record[graph.Edge], replayChunk)
	for off := start; off < end; {
		n, err := wal.Read(off, recs)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, fmt.Errorf("log ends at offset %d of %d", off, end)
		}
		for i, rec := range recs[:n] {
			if rec.Msg != all[off+uint64(i)] {
				return 0, fmt.Errorf("log offset %d decodes to %+v, published %+v", off+uint64(i), rec.Msg, all[off+uint64(i)])
			}
		}
		off += uint64(n)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return 0, err
		}
		bytes += fi.Size()
	}
	return float64(bytes) / float64(end-start), nil
}

// marshalEdge and unmarshalEdge copy the cluster's firehose record codec,
// which it does not export: varint fields, no framing. deploymentLog
// checks the copy against what the cluster wrote.
func marshalEdge(e graph.Edge) ([]byte, error) {
	b := make([]byte, 0, 3*binary.MaxVarintLen64+1)
	b = binary.AppendUvarint(b, uint64(e.Src))
	b = binary.AppendUvarint(b, uint64(e.Dst))
	b = append(b, byte(e.Type))
	b = binary.AppendVarint(b, e.TS)
	return b, nil
}

func unmarshalEdge(b []byte) (graph.Edge, error) {
	var e graph.Edge
	src, n := binary.Uvarint(b)
	if n <= 0 {
		return e, fmt.Errorf("edge src: short payload")
	}
	b = b[n:]
	dst, n := binary.Uvarint(b)
	if n <= 0 || len(b) < n+1 {
		return e, fmt.Errorf("edge dst: short payload")
	}
	typ := b[n]
	ts, m := binary.Varint(b[n+1:])
	if m <= 0 {
		return e, fmt.Errorf("edge ts: short payload")
	}
	return graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Type: graph.EdgeType(typ), TS: ts}, nil
}
