package main

import (
	"fmt"
	"log"
	"time"

	"motifstream/internal/baseline"
	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

// runE3 measures the delivery funnel: "billions of raw candidates are
// generated, yielding millions of push notifications (after eliminating
// duplicates, suppressing messages during non-waking hours, controlling
// for fatigue, etc.)" — a roughly 1000:1 reduction. The raw volume comes
// from running a permissive k=2 diamond plus the k=1 fresh-follow
// broadcast, mirroring how many raw candidates upstream stages see.
func runE3(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	static := cachedGraph(users, avgFollows)
	stream := cachedStream(users, events)

	builder := &statstore.Builder{MaxInfluencers: 200}
	s := statstore.New(builder.Build(static))
	d := dynstore.New(dynstore.Options{Retention: 10 * time.Minute})
	ctx := &motif.Context{S: s, D: d}
	progs := []motif.Program{
		motif.NewDiamond(motif.DiamondConfig{K: 2, Window: 10 * time.Minute, MaxFanout: 64}),
		motif.NewFreshFollow(64),
	}
	pipe := delivery.NewPipeline(delivery.Options{})

	for _, e := range stream {
		d.Insert(e)
		for _, p := range progs {
			for _, cand := range p.OnEdge(ctx, e) {
				pipe.Offer(cand, 0)
			}
		}
	}

	st := pipe.Stats()
	tb := newTable("stage", "count", "% of raw")
	pct := func(n uint64) string {
		if st.Raw == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(st.Raw))
	}
	tb.addf("raw candidates|%d|%s", st.Raw, pct(st.Raw))
	tb.addf("dropped duplicate|%d|%s", st.DroppedDuplicate, pct(st.DroppedDuplicate))
	tb.addf("dropped asleep|%d|%s", st.DroppedAsleep, pct(st.DroppedAsleep))
	tb.addf("dropped fatigue|%d|%s", st.DroppedFatigue, pct(st.DroppedFatigue))
	tb.addf("delivered pushes|%d|%s", st.Delivered, pct(st.Delivered))
	tb.print()
	fmt.Printf("  reduction factor: %.0f:1 (paper: ~1000:1, \"billions\" -> \"millions\")\n",
		safeDiv(float64(st.Raw), float64(st.Delivered)))
	fmt.Println("  expected shape: raw candidates exceed pushes by orders of magnitude;")
	fmt.Println("  duplicates dominate the drops (hot items re-trigger constantly).")
}

// runE4 measures the two rejected baselines. Polling: detection latency is
// ~Period/2 versus effectively instant for streaming. Two-hop: memory is
// quadratic in degree versus linear for S+D; measured at laptop scale and
// modeled at Twitter scale.
func runE4(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	if !c.quick {
		users, events = 8_000, 60_000 // polling is O(users × followings) per tick
	}
	static := cachedGraph(users, avgFollows)
	// The stream must span many poll periods for polling latency to be
	// measurable: ~30 minutes of stream time.
	stream := cachedSlowStream(users, events, 1_800)

	// --- Polling latency vs streaming. ---
	fmt.Println("  (a) detection latency: polling vs streaming")
	tb := newTable("design", "poll period", "mean detection latency", "p99")
	for _, period := range []time.Duration{time.Minute, 5 * time.Minute} {
		rec := baseline.NewPollingRecommender(baseline.PollingConfig{
			Period: period, K: 3, Window: 10 * time.Minute,
		}, static)
		var total time.Duration
		var worst time.Duration
		n := 0
		for _, e := range stream {
			rec.Ingest(e)
			if rec.PollDue(e.TS) {
				for _, r := range rec.Poll(e.TS) {
					total += r.DetectionLatency
					if r.DetectionLatency > worst {
						worst = r.DetectionLatency
					}
					n++
				}
			}
		}
		mean := time.Duration(0)
		if n > 0 {
			mean = total / time.Duration(n)
		}
		tb.addf("polling|%v|%v|%v", period, mean.Round(time.Second), worst.Round(time.Second))
	}
	tb.addf("streaming (this system)|n/a|~0 (detect on arrival) + queue hops|see E2")
	tb.print()

	// --- Two-hop memory vs S+D. ---
	fmt.Println("\n  (b) memory: two-hop Bloom materialization vs S+D")
	twoHop := baseline.BuildTwoHop(baseline.TwoHopConfig{FPRate: 0.01}, static)
	builder := &statstore.Builder{}
	snap := builder.Build(static)
	d := dynstore.New(dynstore.Options{Retention: 10 * time.Minute})
	for _, e := range stream {
		d.Insert(e)
	}
	dBytes := d.MemoryBytes()

	tb2 := newTable("scale", "design", "memory")
	tb2.addf("laptop (%d users)|two-hop Bloom|%s", users, fmtBytes(twoHop.MemoryBytes()))
	tb2.addf("laptop (%d users)|S + D (this system)|%s", users, fmtBytes(snap.MemoryBytes()+dBytes))
	model := baseline.TwitterScaleModel()
	tb2.addf("Twitter 2012 (model)|two-hop Bloom|%s", fmtBytes(uint64(model.TwoHopBytes)))
	tb2.addf("Twitter 2012 (model)|S + D (this system)|%s", fmtBytes(uint64(model.StreamingBytes)))
	tb2.print()
	fmt.Printf("  measured laptop ratio: %.0fx; modeled Twitter-scale ratio: %.0fx\n",
		safeDiv(float64(twoHop.MemoryBytes()), float64(snap.MemoryBytes()+dBytes)),
		safeDiv(model.TwoHopBytes, model.StreamingBytes))

	// --- Degree sweep: the asymptotics, measured. ---
	fmt.Println("\n  (c) memory vs mean degree (measured at laptop scale)")
	tb3 := newTable("mean follows", "S + index memory (linear)", "two-hop memory (quadratic)", "ratio")
	sweepUsers := 4_000
	if c.quick {
		sweepUsers = 2_000
	}
	for _, deg := range []int{10, 20, 40, 80} {
		g := cachedGraph(sweepUsers, deg)
		sb := (&statstore.Builder{}).Build(g)
		th := baseline.BuildTwoHop(baseline.TwoHopConfig{FPRate: 0.01}, g)
		tb3.addf("%d|%s|%s|%.1fx", deg, fmtBytes(sb.MemoryBytes()),
			fmtBytes(th.MemoryBytes()),
			safeDiv(float64(th.MemoryBytes()), float64(sb.MemoryBytes())))
	}
	tb3.print()
	fmt.Println("  expected shape: doubling mean degree doubles S but ~quadruples two-hop;")
	fmt.Println("  the paper's \"rough calculation shows this is impractical\" holds at scale.")
}

// runE5 measures D-store resident memory and detection recall across
// retention windows: "memory pressure can be alleviated by pruning the D
// data structure to only retain the most recent edges."
func runE5(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	static := cachedGraph(users, avgFollows)
	// Retention only bites when the stream outlives it: ~2h of stream
	// time against retentions of 1m..1h.
	stream := cachedSlowStream(users, events, 7_200)
	builder := &statstore.Builder{MaxInfluencers: 200}
	s := statstore.New(builder.Build(static))

	type row struct {
		retention time.Duration
		bytes     uint64
		edges     int64
		cands     int
	}
	retentions := []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute, time.Hour}
	var rows []row
	var maxCands int
	for _, ret := range retentions {
		d := dynstore.New(dynstore.Options{Retention: ret})
		ctx := &motif.Context{S: s, D: d}
		// Window is capped by retention: edges older than retention are
		// gone regardless of the program's τ.
		window := 10 * time.Minute
		if ret < window {
			window = ret
		}
		prog := motif.NewDiamond(motif.DiamondConfig{K: 3, Window: window, MaxFanout: 64})
		cands := 0
		var peakBytes uint64
		var peakEdges int64
		for i, e := range stream {
			d.Insert(e)
			cands += len(prog.OnEdge(ctx, e))
			if i%5000 == 0 {
				d.Sweep(e.TS)
				if b := d.MemoryBytes(); b > peakBytes {
					peakBytes = b
					peakEdges = d.Stats().Edges
				}
			}
		}
		rows = append(rows, row{ret, peakBytes, peakEdges, cands})
		if cands > maxCands {
			maxCands = cands
		}
	}

	tb := newTable("retention", "peak D edges", "peak D memory", "candidates", "recall vs 1h")
	for _, r := range rows {
		tb.addf("%v|%d|%s|%d|%.1f%%", r.retention, r.edges, fmtBytes(r.bytes), r.cands,
			100*safeDiv(float64(r.cands), float64(maxCands)))
	}
	tb.print()
	fmt.Println("  expected shape: memory grows with retention and saturates once retention")
	fmt.Println("  exceeds the stream span; recall saturates once retention >= the 10m window.")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%.1f TiB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

var _ = log.Fatal
