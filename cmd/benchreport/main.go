// Command benchreport regenerates every experiment in the reproduction's
// experiment index (DESIGN.md §4): the Figure 1 walkthrough and the nine
// quantitative claims of the paper's §2, printing paper-vs-measured tables.
// The trajectory experiments (T1..T5) additionally measure the pinned
// benchmark-trajectory point (docs/BENCHMARKS.md) and every experiment
// returns its headline numbers as structured benchfmt metrics, so a run
// can be written to a BENCH_<date>.json artifact and gated against the
// previous one.
//
// Usage:
//
//	benchreport                 # run the full experiment index
//	benchreport -exp E2,E5      # run a subset
//	benchreport -quick          # smaller workloads, faster run
//	benchreport -trajectory \
//	  -json bench/BENCH_$(date +%F).json \
//	  -baseline bench -tol 0.5  # trajectory point + regression gate
//
// Absolute numbers differ from the paper's production testbed (this is a
// laptop-scale simulation); the *shapes* — who wins, by what factor, where
// crossovers fall — are what each experiment checks. EXPERIMENTS.md
// records a full run; docs/BENCHMARKS.md documents the artifact schema and
// the trajectory runbook.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"motifstream/internal/benchfmt"
)

// experiment is one entry in the index. run prints its human table and
// returns the headline measurements as structured metrics.
type experiment struct {
	id    string
	title string
	run   func(c runConfig) []benchfmt.Metric
}

// runConfig carries global harness settings into each experiment.
type runConfig struct {
	quick bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")

	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment IDs (F1,E1..E9,T1..T5) or 'all'")
		quick      = flag.Bool("quick", false, "use smaller workloads")
		trajectory = flag.Bool("trajectory", false, "run only the trajectory experiments (T1..T5)")
		jsonOut    = flag.String("json", "", "write a benchfmt artifact (BENCH_<date>.json) to this path")
		baseline   = flag.String("baseline", "", "prior artifact to gate against: a file, or a directory whose newest BENCH_*.json is used")
		tol        = flag.Float64("tol", 0.5, "default relative tolerance for the -baseline regression gate")
	)
	flag.Parse()

	experiments := []experiment{
		{"F1", "Figure 1 walkthrough (k=2 diamond on the sample fragment)", runF1},
		{"E1", "ingestion throughput vs partition count (target 10^4/s)", runE1},
		{"E2", "end-to-end latency split: queue hops vs graph queries", runE2},
		{"E3", "delivery funnel: raw candidates -> pushes", runE3},
		{"E4", "rejected baselines: polling latency, two-hop memory", runE4},
		{"E5", "D-store memory vs retention window (pruning)", runE5},
		{"E6", "candidate volume vs k and window", runE6},
		{"E7", "S memory and recall vs influencer cap", runE7},
		{"E8", "intersection kernel ablation", runE8},
		{"E9", "read throughput and failover vs replica count", runE9},
		{"T1", "trajectory: pinned ingest throughput + wall-clock detection latency", runT1},
		{"T2", "trajectory: recovery replay rate (kill/restore/catch-up)", runT2},
		{"T3", "trajectory: reprovision latency (node replacement)", runT3},
		{"T4", "trajectory: networked ingest + envelope RPC RTT (loopback sockets)", runT4},
		{"T5", "trajectory: shared multi-query execution, 100 standing motifs", runT5},
	}

	sel := *expFlag
	if *trajectory {
		sel = "T1,T2,T3,T4,T5"
	}
	all := sel == "all"
	want := map[string]bool{}
	if !all {
		for _, id := range strings.Split(sel, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	// Resolve the baseline before writing anything, so a fresh artifact in
	// the same directory can never become its own baseline.
	var prior *benchfmt.Report
	if *baseline != "" {
		var err error
		prior, err = loadBaseline(*baseline)
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
		if prior == nil {
			fmt.Printf("no prior artifact under %s; this run seeds the trajectory\n", *baseline)
		}
	}

	cfg := runConfig{quick: *quick}
	ran := 0
	var collected []benchfmt.Metric
	start := time.Now()
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		delete(want, e.id)
		fmt.Printf("\n===== %s: %s =====\n", e.id, e.title)
		t := time.Now()
		collected = append(collected, e.run(cfg)...)
		fmt.Printf("[%s completed in %v]\n", e.id, time.Since(t).Round(time.Millisecond))
		ran++
	}
	if len(want) > 0 {
		ids := make([]string, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		log.Printf("unknown experiment IDs: %s", strings.Join(ids, ", "))
		os.Exit(2)
	}
	fmt.Printf("\n%d experiment(s) in %v\n", ran, time.Since(start).Round(time.Millisecond))

	if *jsonOut == "" && prior == nil {
		return
	}
	rep := buildReport(cfg, collected)
	if *jsonOut != "" {
		if err := rep.WriteFile(*jsonOut); err != nil {
			log.Fatalf("write artifact: %v", err)
		}
		fmt.Printf("\nwrote %s (%d metrics)\n", *jsonOut, len(rep.Metrics))
	}
	if prior != nil {
		cmp := benchfmt.Compare(prior, rep, *tol)
		fmt.Printf("\ntrajectory vs %s:\n%s", prior.Date, cmp.Format())
		if !cmp.Ok() {
			// The artifact is already on disk — a regressing run still
			// records its trajectory point — but the gate fails.
			log.Printf("regression gate FAILED (%d regression(s))", len(cmp.Regressions()))
			os.Exit(1)
		}
		fmt.Println("regression gate ok")
	}
}

// buildReport wraps collected metrics with run metadata and the pinned
// workload description.
func buildReport(cfg runConfig, metrics []benchfmt.Metric) *benchfmt.Report {
	users, avgFollows, events := workloadSizes(cfg.quick)
	name := "trajectory-v1"
	if cfg.quick {
		// Quick runs measure a different workload; naming them differently
		// makes the comparator refuse apples-to-oranges gating.
		name = "trajectory-v1-quick"
	}
	return &benchfmt.Report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Commit:    vcsRevision(),
		GoVersion: runtime.Version(),
		Host:      fmt.Sprintf("%s/%s/%dcpu", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Workload: benchfmt.Workload{
			Name: name, Seed: 1, Users: users, AvgFollows: avgFollows,
			Events: events, Partitions: trajectoryPartitions, Replicas: trajectoryReplicas,
		},
		Metrics: metrics,
	}
}

// vcsRevision extracts the short VCS revision stamped into the binary, or
// "" when built outside a repository (e.g. go test binaries).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return ""
}

// loadBaseline resolves path — an artifact file or a directory of them —
// to the prior trajectory point. A directory without artifacts (or a
// missing directory) is the first-run case: no prior, no error. A present
// but unreadable artifact is an error: silently skipping the gate would
// make every later regression invisible.
func loadBaseline(path string) (*benchfmt.Report, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		latest, err := benchfmt.LatestArtifact(path)
		if err != nil {
			return nil, err
		}
		if latest == "" {
			return nil, nil
		}
		path = latest
	}
	return benchfmt.ReadFile(path)
}

// table is a minimal aligned-column printer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) print() {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < width[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		fmt.Println("  " + strings.TrimRight(sb.String(), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}
