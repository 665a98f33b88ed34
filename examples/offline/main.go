// Command offline demonstrates the batch side of the paper's design:
// "the A→B edges are computed offline and loaded into the system
// periodically: this allows us to take advantage of rich features to
// prune the graph" (§2). It scores follow edges against engagement
// history, prunes each user to their strongest influencers, and shows how
// pruning changes both memory and the recommendations produced.
//
// Run with: go run ./examples/offline
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"motifstream"
)

func main() {
	gcfg := motifstream.GraphConfig{Users: 10_000, AvgFollows: 40, ZipfS: 1.35, Seed: 3}
	rawFollows := motifstream.GenFollowGraph(gcfg)

	// Synthesize engagement history: each user engages mostly with a few
	// of their followings (the real signal the production scorer uses).
	now := motifstream.Millis(time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC))
	r := rand.New(rand.NewSource(5))
	byUser := map[motifstream.VertexID][]motifstream.VertexID{}
	var followers []motifstream.VertexID
	for _, e := range rawFollows {
		if byUser[e.Src] == nil {
			followers = append(followers, e.Src)
		}
		byUser[e.Src] = append(byUser[e.Src], e.Dst)
	}
	// Draw in user order: ranging over the map would hand each user
	// different draws from run to run.
	slices.Sort(followers)
	var interactions []motifstream.Interaction
	for _, a := range followers {
		followings := byUser[a]
		// Engage with ~3 favourites repeatedly.
		for j := 0; j < 3 && j < len(followings); j++ {
			b := followings[r.Intn(len(followings))]
			for k := 0; k < 1+r.Intn(5); k++ {
				interactions = append(interactions, motifstream.Interaction{
					A: a, B: b, TS: now - int64(r.Intn(7*24*3_600_000)),
				})
			}
		}
	}

	fmt.Printf("raw graph: %d follow edges, %d engagement events\n",
		len(rawFollows), len(interactions))

	pruned, stats := motifstream.BuildStatic(rawFollows, interactions, now, motifstream.BatchOptions{
		MaxInfluencers: 15,
	})
	fmt.Println(stats)
	fmt.Printf("pruned graph: %d edges (%.0f%% of raw)\n",
		len(pruned), 100*float64(len(pruned))/float64(len(rawFollows)))

	// Run the same stream against raw and pruned graphs.
	events := motifstream.GenEventStream(motifstream.StreamConfig{
		Users: gcfg.Users, Events: 80_000, Rate: 10_000,
		BurstFraction: 0.4, BurstMeanSize: 12, BurstWindow: 10 * time.Minute,
		ZipfS: 1.35, Seed: 11,
	})
	for _, name := range []string{"raw", "pruned"} {
		static := rawFollows
		if name == "pruned" {
			static = pruned
		}
		sys, err := motifstream.New(static, motifstream.Options{
			K: 3, Window: 10 * time.Minute, MaxFanout: 64,
		})
		if err != nil {
			log.Fatal(err)
		}
		total := 0
		users := map[motifstream.VertexID]bool{}
		for _, e := range events {
			for _, c := range sys.Apply(e) {
				total++
				users[c.User] = true
			}
		}
		st := sys.Stats()
		fmt.Printf("%-7s S: %8d candidates for %5d users | query p99 %v\n",
			name, total, len(users), st.QueryP99)
	}
	fmt.Println("\nthe cap is the paper's precision/volume lever: the pruned S costs a")
	fmt.Println("fraction of the memory and floods users far less, because only motifs")
	fmt.Println("completed by each user's strongest (engaged-with) influencers survive.")
}
