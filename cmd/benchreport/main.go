// Command benchreport regenerates every experiment in the reproduction's
// experiment index (the experiments table below): the Figure 1 walkthrough
// and the nine quantitative claims of the paper's §2, printing
// paper-vs-measured tables.
//
// Usage:
//
//	benchreport                 # run the full experiment index
//	benchreport -exp E2,E5      # run a subset
//	benchreport -quick          # smaller workloads, faster run
//
// Absolute numbers differ from the paper's production testbed (this is a
// laptop-scale simulation); the *shapes* — who wins, by what factor, where
// crossovers fall — are what each experiment checks. Performance claims
// about this repository are not made here: benchmark/ is the instrument
// (docs/BENCHMARKS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"
)

// experiment is one entry in the index; run prints its tables.
type experiment struct {
	id    string
	title string
	run   func(c runConfig)
}

// runConfig carries global harness settings into each experiment.
type runConfig struct {
	quick bool
}

var experiments = []experiment{
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
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run parses args, runs the selected experiments (tables go to standard
// output) and returns the process exit code: 2 for a bad flag or an
// experiment ID the index does not hold, with the reason on stderr.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "comma-separated experiment IDs (F1,E1..E9) or 'all'")
	quick := fs.Bool("quick", false, "use smaller workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := *expFlag == "all"
	want := map[string]bool{}
	if !all {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	cfg := runConfig{quick: *quick}
	ran := 0
	start := time.Now()
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		delete(want, e.id)
		fmt.Printf("\n===== %s: %s =====\n", e.id, e.title)
		t := time.Now()
		e.run(cfg)
		fmt.Printf("[%s completed in %v]\n", e.id, time.Since(t).Round(time.Millisecond))
		ran++
	}
	if len(want) > 0 {
		ids := make([]string, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(stderr, "benchreport: unknown experiment IDs: %s\n", strings.Join(ids, ", "))
		return 2
	}
	fmt.Printf("\n%d experiment(s) in %v\n", ran, time.Since(start).Round(time.Millisecond))
	return 0
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
