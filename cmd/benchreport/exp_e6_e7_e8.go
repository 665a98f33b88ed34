package main

import (
	"fmt"
	"math/rand"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

// runE6 sweeps the paper's two tunables: "if more than k of them follow an
// account C within a time period τ ... (where k and τ are tunable
// parameters)" with production k=3. Candidate volume should fall sharply
// as k rises or τ shrinks.
func runE6(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	static := cachedGraph(users, avgFollows)
	// τ only matters when the stream spans several windows: ~1h of
	// stream time against 5m/10m windows.
	stream := cachedSlowStream(users, events, 3_600)
	builder := &statstore.Builder{MaxInfluencers: 200}
	s := statstore.New(builder.Build(static))

	tb := newTable("k", "window", "candidates", "distinct users", "per-event work (ns)")
	for _, k := range []int{2, 3, 4} {
		for _, window := range []time.Duration{5 * time.Minute, 10 * time.Minute} {
			d := dynstore.New(dynstore.Options{Retention: window})
			ctx := &motif.Context{S: s, D: d}
			prog := motif.NewDiamond(motif.DiamondConfig{K: k, Window: window, MaxFanout: 64})
			cands := 0
			seenUsers := make(map[graph.VertexID]bool)
			start := time.Now()
			for _, e := range stream {
				d.Insert(e)
				for _, cand := range prog.OnEdge(ctx, e) {
					cands++
					seenUsers[cand.User] = true
				}
			}
			perEvent := time.Since(start).Nanoseconds() / int64(len(stream))
			tb.addf("%d|%v|%d|%d|%d", k, window, cands, len(seenUsers), perEvent)
		}
	}
	tb.print()
	fmt.Println("  expected shape: volume drops sharply with rising k and shrinking window;")
	fmt.Println("  production chose k=3 to trade reach for precision.")
}

// runE7 sweeps the influencer cap: "we have found it more effective to
// limit the number of 'influencers' (e.g., B's) each user can have. This
// has the additional benefit of limiting the size of the S data
// structures held in memory."
func runE7(c runConfig) {
	users, avgFollows, events := workloadSizes(c.quick)
	static := cachedGraph(users, avgFollows)
	stream := cachedStream(users, events)

	type row struct {
		cap    int
		sEdges uint64
		sBytes uint64
		cands  int
	}
	caps := []int{5, 10, 25, 50, 100, 0}
	var rows []row
	var uncapped int
	for _, capN := range caps {
		builder := &statstore.Builder{MaxInfluencers: capN}
		snap := builder.Build(static)
		s := statstore.New(snap)
		d := dynstore.New(dynstore.Options{Retention: 10 * time.Minute})
		ctx := &motif.Context{S: s, D: d}
		prog := motif.NewDiamond(motif.DiamondConfig{K: 3, Window: 10 * time.Minute, MaxFanout: 64})
		cands := 0
		for _, e := range stream {
			d.Insert(e)
			cands += len(prog.OnEdge(ctx, e))
		}
		rows = append(rows, row{capN, snap.NumEdges(), snap.MemoryBytes(), cands})
		if capN == 0 {
			uncapped = cands
		}
	}
	tb := newTable("influencer cap", "S edges", "S + index memory", "candidates", "recall vs uncapped")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.cap)
		if r.cap == 0 {
			label = "unlimited"
		}
		tb.addf("%s|%d|%s|%d|%.1f%%", label, r.sEdges, fmtBytes(r.sBytes), r.cands,
			100*safeDiv(float64(r.cands), float64(uncapped)))
	}
	tb.print()
	fmt.Println("  expected shape: S memory grows with the cap (the uncapped already-follows")
	fmt.Println("  index is a constant part) and saturates at the true degree distribution;")
	fmt.Println("  recall is already high at moderate caps because")
	fmt.Println("  the cap keeps each user's strongest (most recent) followings.")
}

// runE8 is the intersection-kernel ablation behind "intersections can be
// implemented efficiently using well-known algorithms": two-pointer merge
// vs galloping, and the k-threshold kernel — on the deployed shape and on
// long lists either side of its strategy bound — vs a Go-map count. The
// "kernel runs" column is internal/graph's chooser on that row's shape, held
// to these rows by TestThresholdChooserPicks there.
func runE8(c runConfig) {
	r := rand.New(rand.NewSource(1))
	genList := func(n int, space int64) graph.AdjList {
		ids := make([]graph.VertexID, n)
		for i := range ids {
			ids[i] = graph.VertexID(r.Int63n(space))
		}
		return graph.NewAdjList(ids)
	}
	iters := 2000
	if c.quick {
		iters = 400
	}

	fmt.Println("  (a) exact two-list intersection, 1M ID space")
	tb := newTable("|a|", "|b|", "merge", "gallop", "winner")
	for _, shape := range []struct{ a, b int }{
		{1_000, 1_000}, {1_000, 10_000}, {100, 100_000}, {10_000, 100_000},
	} {
		a, b := genList(shape.a, 1_000_000), genList(shape.b, 1_000_000)
		mergeNS := timeOp(iters, func() { graph.IntersectMerge(a, b) })
		gallopNS := timeOp(iters, func() { graph.IntersectGallop(a, b) })
		winner := "merge"
		if gallopNS < mergeNS {
			winner = "gallop"
		}
		tb.addf("%d|%d|%v|%v|%s", shape.a, shape.b,
			time.Duration(mergeNS), time.Duration(gallopNS), winner)
	}
	tb.print()

	fmt.Println("\n  (b) k-of-n threshold intersection, k = 3: the kernel (strategy picked per call")
	fmt.Println("      from the lists' shape) against a Go-map count, ThresholdIntersectCount")
	tb2 := newTable("shape", "n lists", "elements", "kernel runs", "kernel", "Go-map count", "speedup")
	for _, shape := range []struct {
		name           string
		n, per, spread int   // per ± spread elements a list
		space          int64 // ID space
		picks          string
	}{
		// What a deployed replica intersects per event: the follower lists,
		// cut to one partition's users, of the B's in the window
		// (benchmark/'s trace on steady: 25.6 lists of 16 elements a call).
		{"deployed", 26, 15, 10, 5_000, "ScanCount"},
		{"long lists", 4, 2_000, 0, 100_000, "ScanCount"},
		{"long lists", 8, 2_000, 0, 100_000, "ScanCount"},
		{"long lists", 16, 2_000, 0, 100_000, "ScanCount"},
		{"long lists", 32, 2_000, 0, 100_000, "heap merge"},
	} {
		lists := make([]graph.AdjList, shape.n)
		elems := 0
		for i := range lists {
			lists[i] = genList(shape.per-shape.spread+r.Intn(2*shape.spread+1), shape.space)
			elems += len(lists[i])
		}
		k := 3
		kernelNS := timeOp(iters, func() { graph.ThresholdIntersect(lists, k) })
		countNS := timeOp(iters/4, func() { graph.ThresholdIntersectCount(lists, k) })
		tb2.addf("%s|%d|%d|%s|%v|%v|%.1fx", shape.name, shape.n, elems, shape.picks,
			time.Duration(kernelNS), time.Duration(countNS),
			safeDiv(float64(countNS), float64(kernelNS)))
	}
	tb2.print()
	fmt.Println("  expected shape: galloping wins when list sizes are highly skewed (the")
	fmt.Println("  celebrity case). The threshold kernel beats the Go-map count on every row.")
	fmt.Println("  Each row is one wall-clock run, so its speedup moves from run to run; on a")
	fmt.Println("  2-vCPU host, where the kernel counts into its own reused table (ScanCount),")
	fmt.Println("  it read 20-31x on the deployed shape, 11-16x on 4 and 8 long lists and")
	fmt.Println("  7.5-10x on 16 (near the table's bound of 32 768 elements); past the bound,")
	fmt.Println("  where it falls back to the typed heap merge, about 2x.")
}

// timeOp returns mean ns/op over iters calls.
func timeOp(iters int, fn func()) int64 {
	if iters < 1 {
		iters = 1
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}
