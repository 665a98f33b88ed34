package motifstream

import (
	"sync"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/offline"
)

// Interaction is one engagement signal (A retweeted/favorited/replied-to
// B's content) feeding the offline edge scorer.
type Interaction = offline.Interaction

// EdgeFeatures aggregates the offline signals for one follow edge.
type EdgeFeatures = offline.EdgeFeatures

// BatchOptions configures the offline static-graph build — the paper's
// "the A→B edges are computed offline and loaded into the system
// periodically: this allows us to take advantage of rich features to
// prune the graph."
type BatchOptions struct {
	// MaxInfluencers caps each user's follow list after scoring.
	MaxInfluencers int
	// MinScore drops edges scoring below it.
	MinScore float64
	// Scorer ranks edges from features; nil selects the default blend of
	// engagement volume, engagement recency, follow recency, and
	// reciprocity.
	Scorer func(EdgeFeatures) float64
}

// BatchBuildStats reports what one offline build did.
type BatchBuildStats = offline.BuildStats

// BuildStatic scores raw follow edges against interaction history and
// returns the pruned edge set to load into a System or Cluster, plus
// build statistics. nowMS anchors the recency features.
func BuildStatic(follows []Edge, interactions []Interaction, nowMS int64, opts BatchOptions) ([]Edge, BatchBuildStats) {
	p := offline.NewPipeline(offline.Config{
		MaxInfluencers: opts.MaxInfluencers,
		MinScore:       opts.MinScore,
		Scorer:         opts.Scorer,
	})
	snap, kept, stats := p.Build(follows, interactions, nowMS)
	// The snapshot is partition-agnostic here; callers load the pruned
	// edges so System/Cluster can build partition-filtered stores and
	// already-follows indexes themselves. Apply the snapshot's survivors
	// back onto the kept edge list when a cap was in force.
	if opts.MaxInfluencers <= 0 {
		return kept, stats
	}
	out := make([]Edge, 0, snap.NumEdges())
	for _, e := range kept {
		if followersContain(snap.Followers(e.Dst), e.Src) {
			out = append(out, e)
		}
	}
	return out, stats
}

func followersContain(l graph.AdjList, a VertexID) bool { return l.Contains(a) }

// PeriodicStaticReload launches a background loop that rebuilds the
// System's static store every interval from fetched batch inputs,
// modeling the paper's periodic offline load. The first build runs
// synchronously before return; later ones call fetch from the background
// goroutine, so fetch must be safe to call from another goroutine. The
// returned stop function terminates the loop; it is idempotent and safe to
// call from several goroutines at once, each call returning once the loop
// has exited.
func (s *System) PeriodicStaticReload(interval time.Duration, fetch func() (follows []Edge, interactions []Interaction, nowMS int64), opts BatchOptions) (stop func()) {
	if interval <= 0 {
		interval = time.Hour
	}
	done := make(chan struct{})
	stopCh := make(chan struct{})
	reload := func() {
		follows, interactions, nowMS := fetch()
		kept, _ := BuildStatic(follows, interactions, nowMS, opts)
		s.ReloadStatic(kept)
	}
	reload()
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				reload()
			case <-stopCh:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-done
		})
	}
}
