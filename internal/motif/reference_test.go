package motif

import (
	"sort"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
)

// This file holds the references the differential tests and the fuzz target
// hold the plan executor against. None of them runs in production and none
// calls into planned.go's per-event code: the hand-written diamond,
// fresh-follow and triangle closure are the detectors the executor replaced,
// and interpretOps executes an op list one op at a time, so a plan's Ops (the
// listing EXPLAIN prints) is proven to mean what the executor runs from the
// shape.

// handDiamond is the hand-written §2 detector: on edge B→C, fetch the other
// recent B's pointing at C from D; if at least K, look up each B's followers
// in S and emit the K-threshold intersection.
type handDiamond struct {
	cfg   DiamondConfig
	types map[graph.EdgeType]bool
}

func newHandDiamond(cfg DiamondConfig) *handDiamond {
	types := map[graph.EdgeType]bool{}
	if len(cfg.EdgeTypes) == 0 {
		types[graph.Follow] = true
	}
	for _, t := range cfg.EdgeTypes {
		types[t] = true
	}
	return &handDiamond{cfg: cfg, types: types}
}

func (d *handDiamond) OnEdge(ctx *Context, e graph.Edge) []Candidate {
	if !d.types[e.Type] {
		return nil
	}
	since := e.TS - d.cfg.Window.Milliseconds()
	recent := ctx.D.RecentLimitInto(nil, e.Dst, since, d.cfg.MaxFanout)
	if len(recent) < d.cfg.K {
		return nil
	}
	var bs []graph.VertexID
	var lists []graph.AdjList
	for _, in := range recent {
		if l := ctx.S.Followers(in.B); len(l) > 0 {
			bs = append(bs, in.B)
			lists = append(lists, l)
		}
	}
	if len(lists) < d.cfg.K {
		return nil
	}
	var out []Candidate
	for _, a := range graph.ThresholdIntersect(lists, d.cfg.K) {
		if a == e.Dst {
			continue // never recommend someone to themselves
		}
		if ctx.Follows != nil && ctx.Follows(a, e.Dst) {
			continue // a already follows/acted on the item
		}
		via := refSupporters(a, bs, lists)
		out = append(out, Candidate{
			User: a, Item: e.Dst, Via: via, Trigger: e, DetectedAtMS: e.TS,
			Program: d.cfg.Name, Score: float64(len(via)),
		})
		if d.cfg.MaxCandidates > 0 && len(out) >= d.cfg.MaxCandidates {
			break
		}
	}
	return out
}

// handFreshFollow is the hand-written k=1 detector: every new B→C follow is
// broadcast to all of B's followers.
type handFreshFollow struct{ maxCandidates int }

func (f handFreshFollow) OnEdge(ctx *Context, e graph.Edge) []Candidate {
	if e.Type != graph.Follow {
		return nil
	}
	var out []Candidate
	for _, a := range ctx.S.Followers(e.Src) {
		if a == e.Dst {
			continue
		}
		if ctx.Follows != nil && ctx.Follows(a, e.Dst) {
			continue
		}
		out = append(out, Candidate{
			User: a, Item: e.Dst, Via: []graph.VertexID{e.Src}, Trigger: e,
			DetectedAtMS: e.TS, Program: "fresh-follow", Score: 1,
		})
		if f.maxCandidates > 0 && len(out) >= f.maxCandidates {
			break
		}
	}
	return out
}

// handTriangle is the hand-written co-action triangle: on B→C, every recent
// co-actor A of C is recommended B itself ("you and B both engaged with C —
// follow B"), the closing A→B edge completing the triangle A→C←B, A→B. The
// recipients come from D and S is used in reverse, to suppress A's that
// already follow B. It fires on every trigger type.
type handTriangle struct {
	// Name labels its candidates.
	Name string
	// Window is the co-action freshness period.
	Window time.Duration
	// MaxCoActors caps the recent co-actors considered per event. Zero
	// selects 64.
	MaxCoActors int
	// MaxCandidates caps emissions per event; 0 means unlimited.
	MaxCandidates int
}

func (t handTriangle) OnEdge(ctx *Context, e graph.Edge) []Candidate {
	limit := t.MaxCoActors
	if limit <= 0 {
		limit = 64
	}
	since := e.TS - t.Window.Milliseconds()
	recent := ctx.D.RecentLimitInto(nil, e.Dst, since, limit)
	if len(recent) == 0 {
		return nil
	}
	out := make([]Candidate, 0, len(recent))
	for _, in := range recent {
		a := in.B // a co-actor of C plays the A role here
		if a == e.Src || a == e.Dst {
			continue
		}
		if ctx.Follows != nil && ctx.Follows(a, e.Src) {
			continue // A already follows B
		}
		out = append(out, Candidate{
			User:         a,
			Item:         e.Src, // recommend the actor B itself
			Via:          []graph.VertexID{e.Dst},
			Trigger:      e,
			DetectedAtMS: e.TS,
			Program:      t.Name,
			// Fresher co-action scores higher, normalized to (0, 1].
			Score: 1 - float64(e.TS-in.TS)/float64(t.Window.Milliseconds()+1),
		})
		if t.MaxCandidates > 0 && len(out) >= t.MaxCandidates {
			break
		}
	}
	return out
}

// refSupporters returns the B's whose follower lists contain a, in B order.
func refSupporters(a graph.VertexID, bs []graph.VertexID, lists []graph.AdjList) []graph.VertexID {
	via := make([]graph.VertexID, 0, len(bs))
	for i, l := range lists {
		if l.Contains(a) {
			via = append(via, bs[i])
		}
	}
	return via
}

// interpretOps executes ops literally against one edge: a register machine
// over freshly allocated slices, one switch arm per op kind.
func interpretOps(ctx *Context, name string, ops []Op, e graph.Edge) []Candidate {
	var (
		win    int64
		recent []dynstore.InEdge
		// The bound supports and their follower lists.
		bs    []graph.VertexID
		lists []graph.AdjList
		// The current frontier, and the sources of the last expansion.
		cur       graph.AdjList
		conns     []graph.VertexID
		connLists []graph.AdjList
		expanded  int
		// The co-actor shape's candidates, once OpCoActors has run.
		coActors []Candidate
		co       bool
	)
	for _, op := range ops {
		switch op.Kind {
		case OpFilterTrigger:
			if int(e.Type) >= NumEdgeTypes || op.WindowMS[e.Type] <= 0 {
				return nil
			}
			win = op.WindowMS[e.Type]
		case OpBindTrigger:
			l := ctx.S.Followers(e.Src)
			if len(l) == 0 {
				return nil
			}
			bs, lists, cur = []graph.VertexID{e.Src}, []graph.AdjList{l}, l
		case OpProbeDynamic:
			recent = ctx.D.RecentLimitInto(nil, e.Dst, e.TS-win, op.Limit)
			if len(recent) < op.K {
				return nil
			}
		case OpCoActors:
			co = true
			for _, in := range recent {
				if in.B == e.Src || in.B == e.Dst || (ctx.Follows != nil && ctx.Follows(in.B, e.Src)) {
					continue
				}
				coActors = append(coActors, Candidate{
					User: in.B, Item: e.Src, Via: []graph.VertexID{e.Dst}, Trigger: e, DetectedAtMS: e.TS,
					Program: name, Score: 1 - float64(e.TS-in.TS)/float64(win+1),
				})
			}
		case OpProbeStatic:
			for _, in := range recent {
				if l := ctx.S.Followers(in.B); len(l) > 0 {
					bs = append(bs, in.B)
					lists = append(lists, l)
				}
			}
		case OpThreshold:
			if len(lists) < op.K {
				return nil
			}
			cur = graph.ThresholdIntersect(lists, op.K)
		case OpExpand:
			if op.Limit > 0 && len(cur) > op.Limit {
				cur = cur[:op.Limit]
			}
			conns, connLists = nil, nil
			union := map[graph.VertexID]bool{}
			for _, m := range cur {
				l := ctx.S.Followers(m)
				if len(l) == 0 {
					continue
				}
				conns, connLists = append(conns, m), append(connLists, l)
				for _, a := range l {
					union[a] = true
				}
			}
			cur = cur[:0:0]
			for a := range union {
				cur = append(cur, a)
			}
			sort.Slice(cur, func(i, j int) bool { return cur[i] < cur[j] })
			expanded++
		case OpEmit:
			if co {
				if op.Limit > 0 && len(coActors) > op.Limit {
					coActors = coActors[:op.Limit]
				}
				return coActors
			}
			var out []Candidate
			for _, a := range cur {
				if a == e.Dst || (ctx.Follows != nil && ctx.Follows(a, e.Dst)) {
					continue
				}
				// Unexpanded survivors carry their supports; past an expansion
				// a user is attributed through the first connector it follows:
				// that connector's supports after one hop, the connector itself
				// after two.
				via := refSupporters(a, bs, lists)
				if expanded > 0 {
					conn := refSupporters(a, conns, connLists)[0]
					via = []graph.VertexID{conn}
					if expanded == 1 {
						via = refSupporters(conn, bs, lists)
					}
				}
				out = append(out, Candidate{
					User: a, Item: e.Dst, Via: via, Trigger: e, DetectedAtMS: e.TS,
					Program: name, Score: float64(len(via)),
				})
				if op.Limit > 0 && len(out) >= op.Limit {
					break
				}
			}
			return out
		}
	}
	return nil
}
