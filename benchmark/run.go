package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"motifstream/internal/cluster"
	"motifstream/internal/delivery"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// epoch anchors every due and notification time to the monotonic clock.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// sink receives every delivered notification of a run.
type sink struct {
	probes   []*probe
	notified atomic.Uint64
	// stream counts the notifications whose item is not a probe target:
	// what the pinned stream delivers wherever the probes land.
	stream atomic.Uint64
}

func (s *sink) onNotify(n delivery.Notification) {
	s.notified.Add(1)
	item := n.Candidate.Item
	if item < probeBase {
		s.stream.Add(1)
		return
	}
	p := s.probes[item-probeBase]
	if n.Candidate.User != p.a {
		return
	}
	if p.count.Add(1) == 1 {
		p.trig.Store(int32(p.edgeIndex(n.Candidate.Trigger.Src)))
		p.firstNS.Store(sinceEpoch())
	}
}

// edgeIndex is the position of the probe edge whose source is b.
func (p *probe) edgeIndex(b graph.VertexID) int {
	for i, x := range p.bs {
		if x == b {
			return i
		}
	}
	return 0
}

// latencyMS is the probe's detection latency, or false when it was never
// notified.
func (p *probe) latencyMS() (float64, bool) {
	at := p.firstNS.Load()
	if at == 0 {
		return 0, false
	}
	return float64(at-p.due[p.trig.Load()]) / 1e6, true
}

// deployment is one running instance of the pinned cluster: in process, or
// a hub with one in-process worker cluster per replica index attached over
// loopback TCP (each owning its index across all partitions).
type deployment struct {
	hub     *cluster.Cluster
	workers []*cluster.Cluster
	joins   []chan error
	dir     string
}

func startDeployment(spec workloadSpec, in *inputs, progs func() []motif.Program, dir string, onNotify func(delivery.Notification)) (*deployment, error) {
	cfg := clusterConfig(spec, in, progs, dir, onNotify)
	d := &deployment{dir: dir}
	if !spec.networked {
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		c.Start()
		d.hub = c
		return d, nil
	}
	cfg.Listen = "127.0.0.1:0"
	hub, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	hub.Start()
	d.hub = hub
	for r := 0; r < replicas; r++ {
		wcfg := cfg
		wcfg.Listen, wcfg.LogDir, wcfg.OnNotify = "", "", nil
		wcfg.Join = hub.ListenAddr()
		for pid := 0; pid < partitions; pid++ {
			wcfg.OwnedReplicas = append(wcfg.OwnedReplicas, [2]int{pid, r})
		}
		w, err := cluster.New(wcfg)
		if err != nil {
			d.shutdown()
			return nil, err
		}
		w.Start()
		done := make(chan error, 1)
		go func() { done <- w.Wait() }()
		d.workers = append(d.workers, w)
		d.joins = append(d.joins, done)
	}
	for pid := 0; pid < partitions; pid++ {
		for r := 0; r < replicas; r++ {
			if err := hub.AwaitReplicaLive(pid, r, time.Minute); err != nil {
				d.shutdown()
				return nil, err
			}
		}
	}
	return d, nil
}

// shutdown drains the deployment durably and waits for every worker.
func (d *deployment) shutdown() error {
	d.hub.Shutdown()
	var first error
	for _, done := range d.joins {
		if err := <-done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clusters lists every cluster of the deployment, hub first.
func (d *deployment) clusters() []*cluster.Cluster {
	return append([]*cluster.Cluster{d.hub}, d.workers...)
}

// applyBatches sums the batched-apply counter over the deployment (the
// replicas of a networked deployment count in their workers' registries).
func (d *deployment) applyBatches() uint64 {
	var n uint64
	for _, c := range d.clusters() {
		n += c.Stats().ApplyBatches
	}
	return n
}

// applied sums the events every replica engine has applied.
func (d *deployment) applied() uint64 {
	var n uint64
	for _, c := range d.clusters() {
		n += c.Metrics().Counter("engine.events").Value()
	}
	return n
}

// setUp is one full set-up: inputs from the seed, the deployment built and
// started, one retention window published and applied, a collection.
func setUp(spec workloadSpec, sd seeds, seconds float64, stateRoot string) (*inputs, *sink, *deployment, error) {
	in, err := genInputs(spec, sd, seconds)
	if err != nil {
		return nil, nil, nil, err
	}
	progs, err := newPrograms(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "run-*")
	if err != nil {
		return nil, nil, nil, err
	}
	s := &sink{probes: in.probes}
	d, err := startDeployment(spec, in, progs, dir, s.onNotify)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	fail := func(err error) (*inputs, *sink, *deployment, error) {
		d.shutdown()
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	for i, e := range in.phases[phaseWarm] {
		if pi := in.probeAt[phaseWarm][i]; pi >= 0 {
			p := in.probes[pi]
			p.due[p.edgeIndex(e.Src)] = sinceEpoch()
		}
		if err := d.hub.Publish(e); err != nil {
			return fail(fmt.Errorf("warm-up publish: %w", err))
		}
	}
	// The closing probes of the warm-up, one per partition, are notified
	// once every partition group has applied the whole window.
	deadline := time.Now().Add(2 * time.Minute)
	for _, p := range in.probes {
		for p.phase == phaseWarm && p.firstNS.Load() == 0 {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("warm-up probe for user %d never notified", p.a))
			}
			time.Sleep(time.Millisecond)
		}
	}
	runtime.GC()
	return in, s, d, nil
}

// pacedStats is what the open-loop generator saw.
type pacedStats struct {
	wall      time.Duration
	lateMS    []float64 // per event: publish start minus due time
	pubErrors int
}

// publishPaced offers edges at rate events/s from one goroutine: it sleeps
// to each due time and publishes everything already due, so a stall is
// charged to the events it delayed rather than hidden by a slower offer.
func publishPaced(c *cluster.Cluster, in *inputs, rate float64) pacedStats {
	edges, probeAt := in.phases[phasePaced], in.probeAt[phasePaced]
	st := pacedStats{lateMS: make([]float64, len(edges))}
	interval := float64(time.Second) / rate
	start := time.Now()
	for i, e := range edges {
		due := start.Add(time.Duration(float64(i) * interval))
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		st.lateMS[i] = float64(now.Sub(due)) / 1e6
		if pi := probeAt[i]; pi >= 0 {
			p := in.probes[pi]
			p.due[p.edgeIndex(e.Src)] = int64(due.Sub(epoch))
		}
		if c.Publish(e) != nil {
			st.pubErrors++
		}
	}
	st.wall = time.Since(start)
	return st
}

// satStats is what the closed-loop publisher saw.
type satStats struct {
	start     time.Time
	pubErrors int
}

// publishSaturated publishes edges back to back from one goroutine; the
// firehose's bounded buffers make it a closed loop. With a tracer, the
// last third records one span per Publish, so its rate against the rate
// before is what per-publish tracing costs.
func publishSaturated(c *cluster.Cluster, in *inputs, tr *tracer) satStats {
	edges, probeAt := in.phases[phaseSat], in.probeAt[phaseSat]
	first := len(in.phases[phaseWarm]) + len(in.phases[phasePaced])
	st := satStats{start: time.Now()}
	tracedFrom := len(edges)
	if tr != nil {
		tracedFrom = 2 * len(edges) / 3
	}
	for i, e := range edges {
		if pi := probeAt[i]; pi >= 0 {
			p := in.probes[pi]
			p.due[p.edgeIndex(e.Src)] = sinceEpoch()
		}
		if i < tracedFrom {
			if c.Publish(e) != nil {
				st.pubErrors++
			}
			continue
		}
		sp := tr.begin("cluster.publish", -1, first+i, first+i+1)
		if c.Publish(e) != nil {
			st.pubErrors++
		}
		tr.end(sp)
	}
	return st
}

// mark is one reading of how many events the replicas have applied.
type mark struct {
	at      time.Time
	applied uint64 // summed over every replica
}

// sampler reads the applied-event counter every sampleEvery on a goroutine
// of its own. The publisher cannot see the consumers' rate (the firehose
// buffers thousands of events ahead of them), so the stationarity line
// and the tracing overhead are taken from these marks.
type sampler struct {
	applied func() uint64
	stop    chan struct{}
	done    chan struct{}
	marks   []mark
}

const sampleEvery = 250 * time.Millisecond

func startSampler(applied func() uint64) *sampler {
	s := &sampler{applied: applied, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			s.marks = append(s.marks, mark{at: time.Now(), applied: s.applied()})
			select {
			case <-s.stop:
				s.marks = append(s.marks, mark{at: time.Now(), applied: s.applied()})
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its marks.
func (s *sampler) finish() []mark {
	close(s.stop)
	<-s.done
	return s.marks
}

// appliedAt is when the replicas had applied n events in all, by linear
// interpolation between the marks around it.
func appliedAt(marks []mark, n uint64) time.Time {
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		if b.applied >= n && b.applied > a.applied {
			share := float64(n-a.applied) / float64(b.applied-a.applied)
			if n < a.applied {
				share = 0
			}
			return a.at.Add(time.Duration(share * float64(b.at.Sub(a.at))))
		}
	}
	return marks[len(marks)-1].at
}

// brokerReads times pull reads against the warmed cluster while nothing is
// ingested: the read beside the writes.
func brokerReads(c *cluster.Cluster, tr *tracer, n int) (float64, error) {
	for from := 0; from < n; from += replayChunk {
		sp := tr.begin("broker.recommendations", -1, 0, 0)
		for i := from; i < from+replayChunk && i < n; i++ {
			if _, err := c.RecommendationsFor(graph.VertexID(i * 7919 % users)); err != nil {
				return 0, err
			}
		}
		tr.end(sp)
	}
	return tr.ns("broker.recommendations") / float64(n), nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate times a fixed pure-Go kernel, so a slow period of the machine
// shows next to the numbers it skewed.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink.Store(x)
	return float64(time.Since(start)) / 1e6
}

// calibSink keeps the kernel's result live.
var calibSink atomic.Uint64

// runResult is one run of one workload.
type runResult struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	StreamSeed int64   `json:"stream_seed"`
	Seconds    float64 `json:"seconds"`
	// Env is where the run took place.
	Env environment `json:"env"`
	// EndToEnd and Layer map metric names to values.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layer    map[string]float64 `json:"per_layer,omitempty"`
	// Counts and Info are printed with the run but are not metrics.
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Delivered uint64 `json:"delivered"`
	// DeliveredStream leaves out the notifications of probe targets;
	// Checked names the reference the deliveries were held against.
	DeliveredStream uint64             `json:"delivered_stream"`
	Checked         string             `json:"checked_against"`
	Events          [numPhases]int     `json:"events"`
	Probes          [numPhases]int     `json:"probe_samples"`
	Info            map[string]float64 `json:"info"`
	Errors          []string           `json:"errors,omitempty"`
}

// environment is what a reader needs to place a run's numbers.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	StateDir   string `json:"state_dir"`
	StateDirFS string `json:"state_dir_fs"`
}

func (r *runResult) failf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runOptions selects what a cluster run does beyond the measurement.
type runOptions struct {
	stateRoot string
	// setups is how many times the set-up is performed; setup_s is the
	// median. The measured phases run on the last one.
	setups int
	// tr, when set, makes this the cluster run of a trace: it adds the
	// broker reads, the loopback byte count and per-publish spans.
	tr *tracer
}

// runCluster performs the set-ups and the two measured phases of one
// workload against the real deployment, tracing off, and checks outputs.
func runCluster(spec workloadSpec, sd seeds, seconds float64, opt runOptions) (*runResult, *inputs, error) {
	res := &runResult{
		Workload: spec.name, Seed: sd.probe, StreamSeed: sd.stream, Seconds: seconds,
		EndToEnd: map[string]float64{}, Layer: map[string]float64{}, Info: map[string]float64{},
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			StateDir: opt.stateRoot, StateDirFS: stateDirFS(opt.stateRoot),
		},
	}
	res.Info["host.calib_before_ms"] = calibrate()

	var (
		in     *inputs
		snk    *sink
		dep    *deployment
		setupS []float64
	)
	for i := 0; i < opt.setups; i++ {
		if dep != nil {
			if err := dep.shutdown(); err != nil {
				return nil, nil, err
			}
			os.RemoveAll(dep.dir)
		}
		t0 := time.Now()
		var err error
		in, snk, dep, err = setUp(spec, sd, seconds, opt.stateRoot)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(dep.dir)
	res.EndToEnd["setup_s"] = median(setupS)
	for p := 0; p < numPhases; p++ {
		res.Events[p] = in.events(p)
	}

	if opt.tr != nil {
		reads := 20_000
		if spec.networked {
			reads = 2_000 // each read is a dial to a worker
		}
		ns, err := brokerReads(dep.hub, opt.tr, reads)
		if err != nil {
			res.failf("broker read: %v", err)
		}
		res.Layer["broker.recommendations_ns_per_query"] = ns
	}
	lo0 := loBytes()
	smp := startSampler(dep.applied)

	// Paced: open loop at the workload's fixed offered rate.
	batches0 := dep.applyBatches()
	cpuPaced0 := cpuTime()
	paced := publishPaced(dep.hub, in, spec.pacedRate)
	cpuPaced1 := cpuTime()
	batches1 := dep.applyBatches()

	// Saturated: closed loop, ending when the durable shutdown has drained.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	sat := publishSaturated(dep.hub, in, opt.tr)
	if err := dep.shutdown(); err != nil {
		res.failf("shutdown: %v", err)
	}
	drained := time.Now()
	cpu1 := cpuTime()
	marks := smp.finish()
	runtime.ReadMemStats(&ms1)
	batches2 := dep.applyBatches()
	nSat := float64(in.events(phaseSat))
	satWall := drained.Sub(sat.start)

	res.Layer["cluster.cpu_us_per_event"] = float64(cpuPaced1-cpuPaced0) / 1e3 / float64(in.events(phasePaced))
	res.Layer["cluster.ingest_events_per_s"] = nSat / satWall.Seconds()
	res.EndToEnd["allocs_per_event"] = float64(ms1.Mallocs-ms0.Mallocs) / nSat
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.EndToEnd["heap_live_mb"] = float64(ms2.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(dep)

	// Probe latencies and the exactly-once check.
	var lat [numPhases][]float64
	missed, dup := 0, 0
	for _, p := range in.probes {
		switch n := p.count.Load(); {
		case n == 0:
			missed++
		case n > 1:
			dup++
		}
		if ms, ok := p.latencyMS(); ok {
			lat[p.phase] = append(lat[p.phase], ms)
		}
	}
	for p := 0; p < numPhases; p++ {
		res.Probes[p] = len(lat[p])
	}
	if missed > 0 || dup > 0 {
		res.failf("probes: %d never notified, %d notified more than once (of %d)", missed, dup, len(in.probes))
	}
	if len(lat[phasePaced]) > 0 {
		res.Layer["cluster.detect_latency_p50_ms"] = quantile(lat[phasePaced], 0.50)
		res.Layer["cluster.detect_latency_p99_ms"] = quantile(lat[phasePaced], 0.99)
	}
	if len(lat[phaseSat]) > 0 {
		res.Layer["cluster.saturated_latency_p50_ms"] = quantile(lat[phaseSat], 0.50)
	}

	// Counts.
	st := dep.hub.Stats()
	res.Delivered = st.Delivered
	res.DeliveredStream = snk.stream.Load()
	if got := snk.notified.Load(); got != st.Delivered {
		res.failf("OnNotify saw %d notifications, Stats().Delivered = %d", got, st.Delivered)
	}
	if st.Delivered == 0 {
		res.failf("nothing delivered")
	}
	pubErrors := paced.pubErrors + sat.pubErrors
	if pubErrors > 0 {
		res.failf("%d Publish calls failed", pubErrors)
	}
	published := in.events(phaseWarm) + in.events(phasePaced) + in.events(phaseSat)
	res.Attempted = published + len(in.probes)
	res.Failed = pubErrors + missed + dup

	// What the run looked like from the outside.
	res.Layer["cluster.generator_late_p99_ms"] = quantile(paced.lateMS, 0.99)
	res.Info["generator_late_p50_ms"] = quantile(paced.lateMS, 0.50)
	res.Info["generator_late_max_ms"] = quantile(paced.lateMS, 1)
	res.Info["paced_wall_s"] = paced.wall.Seconds()
	res.Info["saturated_wall_s"] = satWall.Seconds()
	// Stationarity: the rate at which the replicas applied the first and
	// the last third of the saturated events. Applied counts, not publish
	// times: the publisher runs thousands of buffered events ahead.
	slots := float64(partitions * replicas)
	rateOver := func(fromShare, toShare float64) float64 {
		before := float64(in.events(phaseWarm) + in.events(phasePaced))
		t0 := appliedAt(marks, uint64(slots*(before+fromShare*nSat)))
		t1 := appliedAt(marks, uint64(slots*(before+toShare*nSat)))
		return (toShare - fromShare) * nSat / t1.Sub(t0).Seconds()
	}
	res.Info["stationarity_last_over_first_third"] = rateOver(2.0/3, 1) / rateOver(0, 1.0/3)
	if d := batches1 - batches0; d > 0 {
		res.Layer["cluster.apply_batch_mean_paced"] = float64(in.events(phasePaced)) * slots / float64(d)
	}
	if d := batches2 - batches1; d > 0 {
		res.Layer["cluster.apply_batch_mean_saturated"] = nSat * slots / float64(d)
	}
	var cutP99 time.Duration
	for _, c := range dep.clusters() {
		if p := c.Stats().CutPause.P99; p > cutP99 {
			cutP99 = p
		}
	}
	res.Layer["cluster.cut_pause_p99_ms"] = float64(cutP99) / 1e6
	res.Layer["runtime.alloc_bytes_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / nSat
	res.Layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.Layer["runtime.gc_cpu_fraction"] = ms1.GCCPUFraction
	res.Info["saturated_cpu_us_per_event"] = float64(cpu1-cpu0) / 1e3 / nSat
	if opt.tr != nil {
		res.Layer["trace.overhead_share"] = rateOver(2.0/3, 1) / rateOver(0, 2.0/3)
		perEvent, err := deploymentLog(dep.dir+"/log", in)
		if err != nil {
			res.failf("firehose log: %v", err)
		}
		res.Layer["queue.wal_bytes_per_event"] = perEvent
	}
	if spec.networked {
		res.Layer["transport.wire_bytes_per_event"] = float64(loBytes()-lo0) / float64(in.events(phasePaced)+in.events(phaseSat))
		var rtt []float64
		var reconnects uint64
		for _, w := range dep.workers {
			snap := w.Metrics().Histogram("transport.cands.rtt").Snapshot()
			if snap.Count > 0 {
				rtt = append(rtt, float64(snap.P50)/1e6)
			}
			reconnects += w.Metrics().Counter("transport.reconnects").Value()
		}
		if len(rtt) > 0 {
			res.Layer["transport.cands_rtt_p50_ms"] = quantile(rtt, 1)
		}
		res.Layer["transport.reconnects"] = float64(reconnects)
	}
	res.Info["host.calib_after_ms"] = calibrate()
	res.Layer["host.calib_ms"] = (res.Info["host.calib_before_ms"] + res.Info["host.calib_after_ms"]) / 2
	return res, in, nil
}

// measureRestore sets up a deployment of its own, kills one replica,
// ingests one window while it is dead, restores it and waits until it is
// live. The rate divides by the envelopes actually replayed: engine.events
// moves only with the restored replica once the others have drained.
func measureRestore(spec workloadSpec, sd seeds, seconds float64, stateRoot string, layer map[string]float64) error {
	in, _, dep, err := setUp(spec, sd, seconds, stateRoot)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dep.dir)
	defer dep.shutdown()
	const pid, r = 0, 1
	c := dep.hub
	if err := c.KillReplica(pid, r); err != nil {
		return fmt.Errorf("kill replica: %w", err)
	}
	dead := in.phases[phasePaced]
	if len(dead) > spec.eventsPerWindow {
		dead = dead[:spec.eventsPerWindow]
	}
	for _, e := range dead {
		if err := c.Publish(e); err != nil {
			return fmt.Errorf("publish while dead: %w", err)
		}
	}
	events := c.Metrics().Counter("engine.events")
	var before uint64
	for stable := 0; stable < 20; {
		time.Sleep(5 * time.Millisecond)
		if now := events.Value(); now == before {
			stable++
		} else {
			before, stable = now, 0
		}
	}
	start := time.Now()
	if err := c.RestoreReplica(pid, r); err != nil {
		return fmt.Errorf("restore replica: %w", err)
	}
	if err := c.AwaitReplicaLive(pid, r, 2*time.Minute); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	replayed := float64(events.Value() - before)
	layer["cluster.restore_s"] = wall
	layer["cluster.replayed_envelopes"] = replayed
	layer["cluster.replay_events_per_s"] = replayed / wall
	return nil
}

// stateDirFS names the filesystem under dir, from /proc/mounts.
func stateDirFS(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		under := abs == mnt || mnt == "/" || strings.HasPrefix(abs, mnt+"/")
		if under && len(mnt) >= len(best) {
			best, fs = mnt, f[2]
		}
	}
	return fs
}

// loBytes is the loopback interface's received-byte counter, which counts
// every byte the hub and its workers exchange.
func loBytes() uint64 {
	data, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(strings.TrimSpace(line), ":")
		if !ok || name != "lo" {
			continue
		}
		var rx uint64
		fmt.Sscan(rest, &rx)
		return rx
	}
	return 0
}
