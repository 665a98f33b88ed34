// Command benchmark is the repository's one benchmark: four stationary
// workloads against the real internal/cluster deployment, timed by probes,
// and a layer replay that attributes the cost. BENCHMARK.json at the
// repository root names the command, the workloads and the metrics; the
// README beside this file defines each of them.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	bound float64
}

// endToEnd are the gates: what repeats within a tenth on the box this was
// written on. The three time-based numbers ISSUE 12 also wanted gated do
// not (README, "Measured on this box") and are the first three per-layer
// metrics instead, as the issue rules.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_event", "count", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// headline counts the leading per-layer metrics that every run measures at
// full size and prints, traced or not.
const headline = 3

var perLayer = []metricDef{
	{name: "cluster.ingest_events_per_s", unit: "events/s", better: "higher"},
	{name: "cluster.detect_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.cpu_us_per_event", unit: "us", better: "lower"},
	{name: "queue.publish_ns_per_event", unit: "ns", better: "lower"},
	{name: "queue.wal_append_ns_per_event", unit: "ns", better: "lower"},
	{name: "queue.wal_bytes_per_event", unit: "B", better: "lower"},
	{name: "queue.replay_events_per_s", unit: "events/s", better: "higher"},
	{name: "dynstore.insert_ns_per_event", unit: "ns", better: "lower"},
	{name: "dynstore.recent_ns_per_probe", unit: "ns", better: "lower"},
	{name: "dynstore.sweep_ms_per_sweep", unit: "ms", better: "lower"},
	{name: "dynstore.edges_live", unit: "count", better: "lower"},
	{name: "statstore.build_s", unit: "s", better: "lower"},
	{name: "statstore.followers_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "statstore.mem_mb", unit: "MB", better: "lower"},
	{name: "graph.threshold_calls_per_event", unit: "count", better: "lower"},
	{name: "graph.threshold_ns_per_call", unit: "ns", better: "lower"},
	{name: "graph.threshold_lists_per_call", unit: "count", better: "lower"},
	{name: "graph.threshold_elems_per_call", unit: "count", better: "lower"},
	{name: "graph.threshold_share", unit: "ratio", better: "lower"},
	{name: "motifdsl.compile_us_per_motif", unit: "us", better: "lower"},
	{name: "motif.onedge_ns_per_event", unit: "ns", better: "lower"},
	{name: "motif.planned_over_handwritten", unit: "ratio", better: "lower"},
	{name: "motif.candidates_per_event", unit: "count", better: "lower"},
	{name: "core.apply_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.self_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.shared_fraction", unit: "ratio", better: "higher"},
	{name: "partition.apply_ns_per_event", unit: "ns", better: "lower"},
	{name: "partition.self_ns_per_event", unit: "ns", better: "lower"},
	{name: "partition.skew", unit: "ratio", better: "lower"},
	{name: "partition.capture_delta_us_per_cut", unit: "us", better: "lower"},
	{name: "partition.delta_bytes_per_cut", unit: "B", better: "lower"},
	{name: "delivery.offer_ns_per_candidate", unit: "ns", better: "lower"},
	{name: "delivery.delivered_ratio", unit: "ratio", better: "higher"},
	{name: "broker.recommendations_ns_per_query", unit: "ns", better: "lower"},
	{name: "transport.wire_bytes_per_event", unit: "B", better: "lower"},
	{name: "transport.cands_rtt_p50_ms", unit: "ms", better: "lower"},
	{name: "transport.reconnects", unit: "count", better: "lower"},
	{name: "cluster.detect_latency_p99_ms", unit: "ms", better: "lower"},
	{name: "cluster.generator_late_p99_ms", unit: "ms", better: "lower"},
	{name: "cluster.saturated_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.cut_pause_p99_ms", unit: "ms", better: "lower"},
	{name: "cluster.apply_batch_mean_paced", unit: "count", better: "higher"},
	{name: "cluster.apply_batch_mean_saturated", unit: "count", better: "higher"},
	{name: "cluster.restore_s", unit: "s", better: "lower"},
	{name: "cluster.replayed_envelopes", unit: "count", better: "lower"},
	{name: "cluster.replay_events_per_s", unit: "events/s", better: "higher"},
	{name: "cluster.budget_residual_share", unit: "ratio", better: "lower"},
	{name: "runtime.alloc_bytes_per_event", unit: "B", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_fraction", unit: "ratio", better: "lower"},
	{name: "host.calib_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "higher"},
}

const (
	defaultSeed = 7
	// defaultStreamSeed is the pinned background stream; 11 is the second
	// stream expected.json lists, for a claim that must hold on both.
	defaultStreamSeed = 7
	defaultSeconds    = 18
	// traceShare of --seconds sizes a trace run's cluster phases: the
	// replay that follows walks every event through every layer on one
	// goroutine, and both must fit the time one run may take.
	traceShare = 0.25
	// defaultSetups per measured run; setup_s is their median.
	defaultSetups = 3
	// driftFails is the rate of the last third of the saturated events over
	// the first third's below which (or above whose inverse) a run fails. On
	// identical inputs one run's ratio strays up to 29% from the median of
	// ten on the box this was written on (0.54 to 0.89 on multiquery), so
	// the 10% line is printed and judged over a set of runs (README); one
	// run can only tell a workload whose cost grows with its length.
	driftFails = 1.0 / 3
)

//go:embed expected.json
var expectedJSON []byte

// expectedKey indexes expected.json: what the stream delivers (probe
// targets left out) is a function of the workload, the stream seed and the
// event counts --seconds fixes, wherever --seed puts the probes.
func expectedKey(workload string, streamSeed int64, seconds float64) string {
	return fmt.Sprintf("%s/%d/%g", workload, streamSeed, seconds)
}

type config struct {
	workloads []workloadSpec
	seeds     seeds
	seconds   float64
	trace     bool
	repeat    int
	setups    int    // set-ups per measured run; setup_s is their median
	root      string // checkout root
	stateRoot string
	update    bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	ok, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: steady, quiet, multiquery, networked or all")
	seed := fs.Int64("seed", defaultSeed, "probe seed: where the probes land in the stream and which users they target")
	streamSeed := fs.Int64("stream-seed", defaultStreamSeed, "seed of the background stream; pinned, because the stream's heavy tail moves every count by several percent between seeds")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures at the speed the benchmark was written against; multiplies event counts only")
	trace := fs.Int("trace", 0, "1 runs the layer replay, prints the per-layer metrics and writes the spans")
	repeat := fs.Int("repeat", 1, "passes per workload on the same inputs; prints the spread table and fails where a metric strays from its median by more than half its bound")
	root := fs.String("root", "", "checkout root (default: the directory holding BENCHMARK.json, here or one up)")
	dir := fs.String("dir", "", "state root for logs and checkpoints (default: .bench_build/state under the checkout root)")
	update := fs.Bool("update-expected", false, "recompute expected.json entries for the selected workloads, stream seed and seconds from the sequential replay")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{seeds: seeds{stream: *streamSeed, probe: *seed}, seconds: *seconds, setups: defaultSetups, trace: *trace != 0, repeat: *repeat, root: *root, stateRoot: *dir, update: *update}
	if *workload == "all" {
		cfg.workloads = workloads
	} else {
		spec, ok := workloadByName(*workload)
		if !ok {
			return config{}, fmt.Errorf("unknown workload %q", *workload)
		}
		cfg.workloads = []workloadSpec{spec}
	}
	if cfg.seconds <= 0 || cfg.repeat < 1 {
		return config{}, fmt.Errorf("-seconds and -repeat must be positive")
	}
	if cfg.root == "" {
		for _, r := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(r, "BENCHMARK.json")); err == nil {
				cfg.root = r
				break
			}
		}
		if cfg.root == "" {
			return config{}, fmt.Errorf("BENCHMARK.json not found here or one directory up; pass -root")
		}
	}
	if cfg.stateRoot == "" {
		cfg.stateRoot = filepath.Join(cfg.root, ".bench_build", "state")
	}
	if err := os.MkdirAll(cfg.stateRoot, 0o755); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// run performs every selected run and reports whether all were correct.
func run(cfg config) (bool, error) {
	if cfg.update {
		return true, updateExpected(cfg)
	}
	expected := map[string]uint64{}
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return false, fmt.Errorf("expected.json: %w", err)
	}
	allOK := true
	series := map[string]map[string][]float64{}
	for _, spec := range cfg.workloads {
		series[spec.name] = map[string][]float64{}
		for pass := 0; pass < cfg.repeat; pass++ {
			res, err := runOne(spec, cfg, expected)
			if err != nil {
				return false, fmt.Errorf("%s: %w", spec.name, err)
			}
			for _, d := range endToEnd {
				series[spec.name][d.name] = append(series[spec.name][d.name], res.EndToEnd[d.name])
			}
			for _, d := range perLayer[:headline] {
				series[spec.name][d.name] = append(series[spec.name][d.name], res.Layer[d.name])
			}
			if len(res.Errors) > 0 {
				allOK = false
			}
		}
	}
	if cfg.repeat > 1 && !cfg.trace {
		if !printSpread(cfg, series) {
			allOK = false
		}
	}
	return allOK, nil
}

// runOne performs and prints one run of one workload, output checks included.
func runOne(spec workloadSpec, cfg config, expected map[string]uint64) (*runResult, error) {
	if cfg.trace {
		// The layer replay of the same inputs is a trace run's reference.
		res, err := traceRun(spec, cfg)
		if err != nil {
			return nil, err
		}
		printRun(res, true)
		return res, nil
	}
	res, in, err := runCluster(spec, cfg.seeds, cfg.seconds, runOptions{stateRoot: cfg.stateRoot, setups: cfg.setups})
	if err != nil {
		return nil, err
	}
	if err := checkExpected(res, spec, in, expected); err != nil {
		return nil, err
	}
	printRun(res, false)
	return res, nil
}

// checkExpected holds what the stream delivered against expected.json, or,
// for a stream seed and size the file does not list, against the sequential
// replay computed now. networked is held against steady's entries: the two
// publish the same edges under the same program, and the sockets may not
// change what is delivered.
func checkExpected(res *runResult, spec workloadSpec, in *inputs, expected map[string]uint64) error {
	name := spec.name
	if spec.networked {
		name = "steady"
	}
	key := expectedKey(name, res.StreamSeed, res.Seconds)
	want, listed := expected[key]
	source := "expected.json"
	if !listed {
		var err error
		if want, err = oracleDelivered(spec, in); err != nil {
			return err
		}
		source = "the sequential replay (computed now: expected.json does not list " + key + ")"
	}
	res.Checked = fmt.Sprintf("%s says %d", source, want)
	if res.DeliveredStream != want {
		res.failf("the stream delivered %d, %s says %d", res.DeliveredStream, source, want)
	}
	return nil
}

// traceRun is a workload's trace: a short cluster run for the numbers only
// the running deployment has, the layer replay of the same inputs, and the
// restore cycle. The cluster's delivered count must equal the replay's.
func traceRun(spec workloadSpec, cfg config) (*runResult, error) {
	tr := newTracer()
	res, in, err := runCluster(spec, cfg.seeds, cfg.seconds*traceShare, runOptions{stateRoot: cfg.stateRoot, setups: 1, tr: tr})
	if err != nil {
		return nil, err
	}
	rep, err := layerReplay(tr, spec, in, cfg.stateRoot)
	if err != nil {
		return nil, err
	}
	res.Checked = fmt.Sprintf("the layer replay delivered %d in all", rep.delivered)
	if rep.delivered != res.Delivered {
		res.failf("cluster delivered %d, the sequential replay %d", res.Delivered, rep.delivered)
	}
	for k, v := range rep.layer {
		res.Layer[k] = v
	}
	if spec.restore {
		if err := measureRestore(spec, cfg.seeds, cfg.seconds*traceShare, cfg.stateRoot, res.Layer); err != nil {
			res.failf("restore cycle: %v", err)
		}
	}
	// What the layers do not explain of the CPU an event costs at
	// saturation: hand-offs between goroutines, channels, collection.
	if cpu := res.Info["saturated_cpu_us_per_event"] * 1e3; cpu > 0 {
		res.Layer["cluster.budget_residual_share"] = 1 - rep.layersNS/cpu
	}
	path := filepath.Join(cfg.root, ".bench_build", "out", "trace-"+spec.name+".json")
	if err := tr.write(path, res); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans -> %s\n", len(tr.spans), path)
	return res, nil
}

// printRun prints one run: what it did, every metric by name with its
// unit, its failures, and the result line the driver reads last.
func printRun(res *runResult, traced bool) {
	defs, values := endToEnd, res.EndToEnd
	if traced {
		defs, values = perLayer, res.Layer
	}
	fmt.Printf("\n== %s seed=%d stream-seed=%d seconds=%g ==\n", res.Workload, res.Seed, res.StreamSeed, res.Seconds)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s state-dir=%s (%s)\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.Go, res.Env.StateDir, res.Env.StateDirFS)
	fmt.Printf("events: warm-up %d, paced %d, saturated %d; probe samples: %d/%d/%d; delivered %d\n",
		res.Events[phaseWarm], res.Events[phasePaced], res.Events[phaseSat],
		res.Probes[phaseWarm], res.Probes[phasePaced], res.Probes[phaseSat], res.Delivered)
	fmt.Printf("delivered from the stream (probe targets left out): %d; %s\n", res.DeliveredStream, res.Checked)
	info := make([]string, 0, len(res.Info))
	for k := range res.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for i, k := range info {
		info[i] = fmt.Sprintf("%s=%.4g", k, res.Info[k])
	}
	fmt.Println("info:", strings.Join(info, " "))
	// A trace run spans every publish of its last third, and a phase
	// shorter than a dozen sampler marks has no thirds to compare.
	if ratio := res.Info["stationarity_last_over_first_third"]; !traced && res.Info["saturated_wall_s"] >= 12*sampleEvery.Seconds() {
		verdict := "within 10%"
		switch {
		case ratio < driftFails || ratio > 1/driftFails:
			verdict = "DRIFT"
			res.failf("drift: the last third of the saturated events was applied at %.3fx the first third's rate", ratio)
		case ratio < 0.9 || ratio > 1.1:
			verdict = "outside 10%; one run cannot tell that from noise, the README has the medians of sets"
		}
		fmt.Printf("stationarity: the last third of the saturated events was applied at %.3fx the first third's rate (%s)\n", ratio, verdict)
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.failf("%s is %v", d.name, v)
			v = 0
		}
		fmt.Printf("  %-40s %14.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if !traced {
		fmt.Println("not gated, from the same phases:")
		for _, d := range perLayer[:headline] {
			fmt.Printf("  %-40s %14.4f %s\n", d.name, res.Layer[d.name], d.unit)
		}
	}
	for _, e := range res.Errors {
		fmt.Println("FAIL:", e)
	}
	fmt.Printf("operations: attempted %d, failed %d\n", res.Attempted, res.Failed)
	failed := res.Failed
	if len(res.Errors) > 0 && failed == 0 {
		failed = res.Attempted // a failed count check fails the whole run
	}
	line, _ := json.Marshal(map[string]any{
		"correct": len(res.Errors) == 0, "attempted": res.Attempted, "failed": failed, "metrics": metrics,
	})
	fmt.Println(string(line))
}

// printSpread prints, per workload, for every end-to-end metric and the
// ungated headline ones, the median and quartiles over the passes (same
// inputs every pass, so this is the noise of the machine alone), the spread
// as the driver takes it (quartile distance over median) and the largest
// relative deviation from the median, and reports whether every gated
// metric stays within half its bound of its median.
func printSpread(cfg config, series map[string]map[string][]float64) bool {
	ok := true
	fmt.Printf("\n== spread over %d passes ==\n", cfg.repeat)
	fmt.Printf("%-11s %-30s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "maxdev", "bound")
	for _, spec := range cfg.workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer[:headline]...) {
			vs := series[spec.name][d.name]
			q1, q2, q3 := quartiles(vs)
			dev := maxRelDev(vs)
			bound := "     -"
			if d.bound > 0 {
				bound = fmt.Sprintf("%5.0f%%", 100*d.bound)
				if dev > d.bound/2 {
					bound += "  !! strays by more than half the bound"
					ok = false
				}
			}
			fmt.Printf("%-11s %-30s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %s\n",
				spec.name, d.name, q1, q2, q3, 100*(q3-q1)/q2, 100*dev, bound)
		}
	}
	return ok
}

// updateExpected rewrites expected.json's entries for the selected
// workloads, stream seed and seconds from the sequential replay.
func updateExpected(cfg config) error {
	path := filepath.Join(cfg.root, "benchmark", "expected.json")
	expected := map[string]uint64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &expected); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, spec := range cfg.workloads {
		if spec.networked {
			continue // held against steady's entry
		}
		in, err := genInputs(spec, cfg.seeds, cfg.seconds)
		if err != nil {
			return err
		}
		n, err := oracleDelivered(spec, in)
		if err != nil {
			return err
		}
		key := expectedKey(spec.name, cfg.seeds.stream, cfg.seconds)
		expected[key] = n
		fmt.Printf("%s = %d\n", key, n)
	}
	data, err := json.MarshalIndent(expected, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
