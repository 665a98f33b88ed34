package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"motifstream/internal/graph"
)

// testSeconds sizes the measured phases of the tests: a few hundred
// events each, enough for every probe path and output check.
const testSeconds = 0.3

// checkRun fails the test on any output-check failure of a run.
func checkRun(t *testing.T, res *runResult, values map[string]float64, want []string) {
	t.Helper()
	if len(res.Errors) > 0 || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d, errors %v", res.Workload, res.Attempted, res.Failed, res.Errors)
	}
	if res.Probes[phasePaced] == 0 || res.Probes[phaseSat] == 0 {
		t.Errorf("%s: probe samples %v", res.Workload, res.Probes)
	}
	for _, name := range want {
		if v := values[name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", res.Workload, name, v)
		}
	}
}

// TestBenchmark runs every workload at a small scale through runOne, every
// output check on and no timing assertion: the trace path (cluster run,
// layer replay, restore cycle) for the diamond and for the DSL set, the
// plain cluster path for the other two. expected.json lists no run this
// small, so the plain runs are held against the sequential replay. The
// four run side by side: nothing here reads the process-wide clocks.
func TestBenchmark(t *testing.T) {
	var mu sync.Mutex
	stream := map[string]uint64{}
	t.Run("workloads", func(t *testing.T) {
		for _, spec := range workloads {
			t.Run(spec.name, func(t *testing.T) {
				t.Parallel()
				res := runSmall(t, spec)
				mu.Lock()
				stream[spec.name] = res.DeliveredStream
				mu.Unlock()
			})
		}
	})
	if stream["steady"] == 0 || stream["steady"] != stream["networked"] {
		t.Errorf("the stream delivered %d on steady, %d on networked: the sockets changed what is delivered", stream["steady"], stream["networked"])
	}
}

func runSmall(t *testing.T, spec workloadSpec) *runResult {
	cfg := config{
		seeds: seeds{stream: defaultStreamSeed, probe: defaultSeed}, seconds: testSeconds, setups: 1,
		root: t.TempDir(), stateRoot: t.TempDir(),
	}
	if cfg.trace = spec.name == "steady" || spec.name == "multiquery"; cfg.trace {
		// traceRun scales --seconds by traceShare: undo it, so the steady
		// trace publishes the edges networked publishes.
		cfg.seconds /= traceShare
	}
	res, err := runOne(spec, cfg, nil)
	if err != nil {
		t.Fatalf("%s: %v", spec.name, err)
	}
	var e2e []string
	for _, d := range endToEnd {
		e2e = append(e2e, d.name)
	}
	checkRun(t, res, res.EndToEnd, e2e)
	layers := []string{"cluster.ingest_events_per_s", "cluster.detect_latency_p50_ms", "cluster.cpu_us_per_event"}
	if cfg.trace {
		layers = append(layers,
			"queue.publish_ns_per_event", "queue.wal_append_ns_per_event", "queue.wal_bytes_per_event", "queue.replay_events_per_s",
			"dynstore.insert_ns_per_event", "dynstore.edges_live", "statstore.build_s", "statstore.mem_mb",
			"motifdsl.compile_us_per_motif", "motif.onedge_ns_per_event", "motif.planned_over_handwritten",
			"core.apply_ns_per_event", "partition.apply_ns_per_event", "partition.skew",
			"delivery.offer_ns_per_candidate", "delivery.delivered_ratio", "broker.recommendations_ns_per_query",
			"host.calib_ms")
		if spec.dsl {
			layers = append(layers, "core.shared_fraction")
		} else {
			layers = append(layers, "cluster.restore_s", "cluster.replayed_envelopes", "dynstore.recent_ns_per_probe", "statstore.followers_ns_per_lookup",
				"graph.threshold_calls_per_event", "graph.threshold_ns_per_call", "graph.threshold_share")
		}
	}
	checkRun(t, res, res.Layer, layers)
	return res
}

// TestInputsFromSeeds: the same seeds give the same inputs; another probe
// seed moves the probes and nothing else; another stream seed gives another
// stream.
func TestInputsFromSeeds(t *testing.T) {
	spec, _ := workloadByName("steady")
	gen := func(sd seeds) *inputs {
		in, err := genInputs(spec, sd, testSeconds)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	stream := func(in *inputs) (out []graph.Edge) {
		for p := range in.phases {
			for i, e := range in.phases[p] {
				if in.probeAt[p][i] < 0 {
					out = append(out, e)
				}
			}
		}
		return out
	}
	a, b := gen(seeds{stream: 3, probe: 5}), gen(seeds{stream: 3, probe: 5})
	if !reflect.DeepEqual(a.phases, b.phases) {
		t.Error("same seeds, different edge sequences")
	}
	c := gen(seeds{stream: 3, probe: 6})
	if reflect.DeepEqual(a.phases, c.phases) {
		t.Error("another probe seed, same edge sequences")
	}
	if !reflect.DeepEqual(stream(a), stream(c)) {
		t.Error("another probe seed changed the stream")
	}
	if reflect.DeepEqual(stream(a), stream(gen(seeds{stream: 4, probe: 5}))) {
		t.Error("another stream seed, same stream")
	}
	if len(a.probes) < partitions+2 {
		t.Errorf("%d probes", len(a.probes))
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	vs := []float64{12.5, 3, 7.25, 9, 15, 1, 8, 20, 4.5, 11}
	q1, q2, q3 := quartiles(vs)
	for _, c := range []struct{ got, want float64 }{{q1, 4.125}, {q2, 8.5}, {q3, 13.125}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 4.125 8.5 13.125", q1, q2, q3)
			break
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in main.go in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, defined %q", i, bm.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d defined", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better || l.Bound != d.bound {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, l, d)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)
}
