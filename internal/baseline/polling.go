// Package baseline implements the two designs the paper considered and
// rejected (§2), so that experiment E4 can measure why: a polling
// recommender that re-queries each user's network on a fixed period, and a
// two-hop neighborhood materialization using Bloom filters. Both produce
// the same recommendations as the streaming diamond detector; they lose on
// detection latency and memory respectively.
package baseline

import (
	"sort"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

// PollingConfig parametrizes the polling recommender.
type PollingConfig struct {
	// Period is how often each user's network is re-examined. The paper:
	// "One could poll each user's network periodically to see if the motif
	// has been formed since the last query; however, the latency would be
	// unacceptably large."
	Period time.Duration
	// K is the motif support threshold (same meaning as the diamond K).
	K int
	// Window is the freshness window τ.
	Window time.Duration
}

// PollingRecommender periodically recomputes, for every user A, the items
// that at least K of A's followings acted on within the window. Detection
// latency is therefore uniform in [0, Period) after motif completion —
// Period/2 on average — versus effectively zero for the streaming design.
type PollingRecommender struct {
	cfg PollingConfig
	// follows maps each A to its sorted followings (the B's).
	follows map[graph.VertexID]graph.AdjList
	users   []graph.VertexID
	// recent is the in-window dynamic history, pruned each poll. Motifs
	// may straddle poll boundaries, so the whole window must be rescanned,
	// not just edges since the last tick — one of the reasons polling does
	// redundant work.
	recent     []graph.Edge
	lastPollMS int64
	// satisfiedAt dedupes detections across polls: a motif stays
	// satisfied for the whole window, so without episode tracking every
	// poll would re-report it with ever-growing latency. The value is
	// the last poll time at which the pair was satisfied; a pair
	// satisfied at consecutive polls is one continuing episode and is
	// reported only at its first poll.
	satisfiedAt map[reportKey]int64
}

type reportKey struct {
	a, c graph.VertexID
}

// PollResult is one detection produced by a poll pass.
type PollResult struct {
	Candidate motif.Candidate
	// DetectionLatency is poll time minus motif completion time: the
	// latency penalty inherent to polling.
	DetectionLatency time.Duration
}

// NewPollingRecommender builds the baseline from the global A→B follow
// edges. Unlike the streaming system it needs the *forward* adjacency: it
// walks from each A outward.
func NewPollingRecommender(cfg PollingConfig, followEdges []graph.Edge) *PollingRecommender {
	if cfg.Period <= 0 {
		cfg.Period = time.Minute
	}
	if cfg.K < 2 {
		cfg.K = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Minute
	}
	byA := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range followEdges {
		byA[e.Src] = append(byA[e.Src], e.Dst)
	}
	follows := make(map[graph.VertexID]graph.AdjList, len(byA))
	users := make([]graph.VertexID, 0, len(byA))
	for a, bs := range byA {
		follows[a] = graph.NewAdjList(bs)
		users = append(users, a)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return &PollingRecommender{
		cfg:         cfg,
		follows:     follows,
		users:       users,
		satisfiedAt: make(map[reportKey]int64),
	}
}

// Ingest buffers one dynamic edge. Nothing is detected until the next poll
// tick — that is the point of the baseline.
func (p *PollingRecommender) Ingest(e graph.Edge) {
	p.recent = append(p.recent, e)
}

// PollDue reports whether a poll pass is due at stream time nowMS.
func (p *PollingRecommender) PollDue(nowMS int64) bool {
	return nowMS-p.lastPollMS >= p.cfg.Period.Milliseconds()
}

// Poll runs one full pass at stream time nowMS: for every user, gather the
// in-window actions of their followings, group by target, and emit targets
// with at least K distinct acting followings. DetectionLatency for each
// result measures the time since the motif actually completed (the Kth
// supporting edge arrived).
func (p *PollingRecommender) Poll(nowMS int64) []PollResult {
	prevPollMS := p.lastPollMS
	p.lastPollMS = nowMS
	since := nowMS - p.cfg.Window.Milliseconds()

	// Prune the window, then index in-window actions by acting user B.
	keep := p.recent[:0]
	for _, e := range p.recent {
		if e.TS >= since {
			keep = append(keep, e)
		}
	}
	p.recent = keep

	type action struct {
		c  graph.VertexID
		ts int64
	}
	actionsByB := make(map[graph.VertexID][]action, len(p.recent))
	for _, e := range p.recent {
		actionsByB[e.Src] = append(actionsByB[e.Src], action{c: e.Dst, ts: e.TS})
	}

	var out []PollResult
	for _, a := range p.users {
		bs := p.follows[a]
		// Distinct supporting B's per target C. A B acting twice on the
		// same C counts once; keep its earliest in-window timestamp.
		firstSeen := make(map[graph.VertexID]map[graph.VertexID]int64)
		for _, b := range bs {
			for _, act := range actionsByB[b] {
				m := firstSeen[act.c]
				if m == nil {
					m = make(map[graph.VertexID]int64, 4)
					firstSeen[act.c] = m
				}
				if old, ok := m[b]; !ok || act.ts < old {
					m[b] = act.ts
				}
			}
		}
		for c, byB := range firstSeen {
			if len(byB) < p.cfg.K || c == a || bs.Contains(c) {
				continue
			}
			tss := make([]int64, 0, len(byB))
			via := make([]graph.VertexID, 0, len(byB))
			for b, ts := range byB {
				tss = append(tss, ts)
				via = append(via, b)
			}
			sort.Slice(tss, func(i, j int) bool { return tss[i] < tss[j] })
			sort.Slice(via, func(i, j int) bool { return via[i] < via[j] })
			completedMS := tss[p.cfg.K-1]
			rk := reportKey{a: a, c: c}
			continuing := p.satisfiedAt[rk] == prevPollMS && prevPollMS != 0
			p.satisfiedAt[rk] = nowMS
			if continuing {
				continue // same episode, already reported
			}
			lat := time.Duration(nowMS-completedMS) * time.Millisecond
			if lat < 0 {
				lat = 0
			}
			out = append(out, PollResult{
				Candidate: motif.Candidate{
					User:         a,
					Item:         c,
					Via:          via,
					DetectedAtMS: nowMS,
					Program:      "baseline-polling",
					Score:        float64(len(byB)),
				},
				DetectionLatency: lat,
			})
		}
	}
	// Drop episodes that ended (not satisfied at this poll) so the pair
	// can report again if it re-completes later.
	for k, at := range p.satisfiedAt {
		if at != nowMS {
			delete(p.satisfiedAt, k)
		}
	}
	return out
}

// Config returns the recommender's configuration.
func (p *PollingRecommender) Config() PollingConfig { return p.cfg }

// NumUsers returns the number of users with at least one following.
func (p *PollingRecommender) NumUsers() int { return len(p.users) }

// StreamingEquivalent runs the same detection with the streaming diamond
// program over equivalent stores, used by E4 to verify the two designs
// agree on what they detect. It returns candidates for the given edges
// applied in order.
func StreamingEquivalent(cfg PollingConfig, followEdges, dynamicEdges []graph.Edge) []motif.Candidate {
	snap := (&statstore.Builder{}).Build(followEdges)
	d := dynstore.New(dynstore.Options{Retention: cfg.Window})
	ctx := &motif.Context{S: statstore.New(snap), D: d, Follows: snap.Follows}
	prog := motif.NewDiamond(motif.DiamondConfig{
		K:         cfg.K,
		Window:    cfg.Window,
		EdgeTypes: []graph.EdgeType{graph.Follow, graph.Retweet, graph.Favorite},
	})
	var out []motif.Candidate
	for _, e := range dynamicEdges {
		d.Insert(e)
		out = append(out, prog.OnEdge(ctx, e)...)
	}
	return out
}
