package motif

import (
	"fmt"
	"slices"
	"strings"

	"motifstream/internal/graph"
)

// This file is the package's one detection executor: the shape a motif plan
// is (Shape, built by NewDiamond, NewFreshFollow, NewTriangleClosure and the
// motifdsl planner), the program a validated shape becomes (PlannedProgram),
// and the shared-execution node that runs it (PlannedGroup): the common probe
// prefix of its members once per event, fanning out only where the plans
// diverge. A program on its own runs as a group of one, so there is no second
// per-event path. The probe-op listing (PlanOps) is the shape's EXPLAIN view,
// and the test-only reference interpreter runs it; the executor reads the
// shape.
//
// Shapes cover the paper's two-hop diamond, longer static chains, k-of-n
// thresholds, per-trigger-type freshness windows, and the co-action triangle.

// NumEdgeTypes is the number of edge types the planned runtime indexes
// per-type windows by. A trigger type outside this range is rejected.
const NumEdgeTypes = 3

// Shape is a motif plan: what the executor runs and what PlanOps lists. The
// support-threshold shape probes D for the recent actors on the trigger's
// target, resolves their follower lists in S and keeps the users at least K
// of them follow (K = 1 binds the trigger actor as the sole support and reads
// no dynamic state), expands that frontier one static hop per ExpandCaps
// entry, and emits. The co-actor shape (CoActors, K = 1, no expansion) makes
// the probed actors the recipients and the trigger actor the item.
type Shape struct {
	// WindowMS holds the freshness window in stream milliseconds per trigger
	// edge type; 0 rejects the type.
	WindowMS [NumEdgeTypes]int64
	// K is the support threshold.
	K int
	// MaxFanout caps the dynamic probe's actors; 0 means unlimited.
	MaxFanout int
	// ExpandCaps holds one survivor cap per expansion, at most two; 0 means
	// unlimited.
	ExpandCaps []int
	// MaxCandidates caps emitted candidates per event; 0 means unlimited.
	MaxCandidates int
	// CoActors selects the co-action triangle.
	CoActors bool
}

// bindsTrigger reports the pruned k=1 shape that reads no dynamic state.
func (s *Shape) bindsTrigger() bool { return s.K == 1 && !s.CoActors }

// OpKind enumerates the probe ops of a plan's listing.
type OpKind uint8

const (
	// OpFilterTrigger gates on the trigger edge's type and selects the
	// freshness window for the accepted type (WindowMS).
	OpFilterTrigger OpKind = iota
	// OpBindTrigger binds the trigger actor e.Src as the sole support and
	// resolves its follower list — the k=1 plan shape, where the trigger
	// edge is itself the single in-window support and the dynamic-window
	// probe is pruned entirely (the plan reads no dynamic state).
	OpBindTrigger
	// OpProbeDynamic fetches the distinct in-window actors at e.Dst from
	// the D store (fanout-capped by Limit) and early-exits below K actors.
	OpProbeDynamic
	// OpProbeStatic resolves each bound support's follower list in S,
	// dropping supports with no followers.
	OpProbeStatic
	// OpThreshold intersects the follower lists with a K-of-n threshold,
	// yielding the survivor frontier.
	OpThreshold
	// OpExpand replaces the survivor frontier with the union of its
	// members' follower lists (one more static hop toward the user),
	// capping the expanded survivors at Limit.
	OpExpand
	// OpEmit turns the final frontier into candidates: self/already-follows
	// suppression, via attribution, and a Limit cap on emissions.
	OpEmit
	// OpCoActors makes the dynamic probe's actors the recipients and the
	// trigger actor e.Src the item: the co-action triangle.
	OpCoActors
)

// String names the op for EXPLAIN output.
func (k OpKind) String() string {
	switch k {
	case OpFilterTrigger:
		return "filter-trigger"
	case OpBindTrigger:
		return "bind-trigger"
	case OpProbeDynamic:
		return "probe-dynamic"
	case OpProbeStatic:
		return "probe-static"
	case OpThreshold:
		return "threshold-intersect"
	case OpExpand:
		return "expand"
	case OpEmit:
		return "emit"
	case OpCoActors:
		return "co-actors"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one step of a plan's listing. Fields are interpreted per kind;
// unused fields are zero.
type Op struct {
	Kind OpKind
	// WindowMS (OpFilterTrigger) holds the freshness window in stream
	// milliseconds per trigger edge type; 0 rejects the type.
	WindowMS [NumEdgeTypes]int64
	// K is the OpProbeDynamic early-exit minimum (1 before OpCoActors) and
	// the OpThreshold support threshold.
	K int
	// Limit caps OpProbeDynamic fanout, OpExpand survivors, and OpEmit
	// candidates; 0 means unlimited.
	Limit int
}

// PlanOps lists a shape as probe ops in execution order — the one place the
// listing is written, for Ops and EXPLAIN alike: the trigger filter; for the
// bound trigger the trigger as sole support, otherwise the dynamic probe
// (fanout-capped) followed by co-actors or by the static probe and the k
// threshold; one expansion per entry of ExpandCaps; emit, capped at
// MaxCandidates.
func PlanOps(s Shape) []Op {
	ops := []Op{{Kind: OpFilterTrigger, WindowMS: s.WindowMS}}
	probe := Op{Kind: OpProbeDynamic, K: s.K, Limit: s.MaxFanout}
	switch {
	case s.bindsTrigger():
		ops = append(ops, Op{Kind: OpBindTrigger})
	case s.CoActors:
		ops = append(ops, probe, Op{Kind: OpCoActors})
	default:
		ops = append(ops, probe, Op{Kind: OpProbeStatic}, Op{Kind: OpThreshold, K: s.K})
	}
	for _, c := range s.ExpandCaps {
		ops = append(ops, Op{Kind: OpExpand, Limit: c})
	}
	return append(ops, Op{Kind: OpEmit, Limit: s.MaxCandidates})
}

// PlannedProgram is a validated shape as a motif program. It is immutable,
// safe for concurrent OnEdge calls, confines its D reads to e.Dst's in-edge
// list (k=1 plans read no dynamic state at all), and costs zero heap
// allocation per non-emitting event on a warmed-up Scratch.
type PlannedProgram struct {
	name     string
	shape    Shape
	shareKey string

	// solo is the group of one OnEdgeScratch runs the program through.
	solo *PlannedGroup
}

// NewPlannedProgram validates shape and returns its program: a name, at
// least one trigger type, no negative window, K >= 1, at most two
// expansions, and for co-actors K = 1 (every in-window actor is a recipient)
// and no expansion (the co-actors are the recipients).
func NewPlannedProgram(name string, shape Shape) (*PlannedProgram, error) {
	if name == "" {
		return nil, fmt.Errorf("motif: planned program needs a name")
	}
	accepts := false
	for t, w := range shape.WindowMS {
		if w < 0 {
			return nil, fmt.Errorf("motif: plan %q has a negative window for %s", name, graph.EdgeType(t))
		}
		accepts = accepts || w > 0
	}
	switch {
	case !accepts:
		return nil, fmt.Errorf("motif: plan %q accepts no trigger types", name)
	case shape.K < 1:
		return nil, fmt.Errorf("motif: plan %q needs K >= 1, got %d", name, shape.K)
	case len(shape.ExpandCaps) > 2:
		return nil, fmt.Errorf("motif: plan %q chains too deep (at most 2 expansions)", name)
	case shape.CoActors && shape.K != 1:
		return nil, fmt.Errorf("motif: plan %q co-actors needs K 1 (every in-window actor is a recipient)", name)
	case shape.CoActors && len(shape.ExpandCaps) > 0:
		return nil, fmt.Errorf("motif: plan %q expands co-actors (they are the recipients)", name)
	}
	shape.ExpandCaps = slices.Clone(shape.ExpandCaps)
	p := &PlannedProgram{name: name, shape: shape, shareKey: shareKeyOf(&shape)}
	p.solo = groupOf([]*PlannedProgram{p})
	return p, nil
}

// shareKeyOf canonicalizes the shared probe prefix: trigger filter (with
// per-type windows), probe kind, and fanout cap. Plans with equal keys
// perform identical per-event D/S prefix work and can execute it once.
// Trigger-only plans key on accepted types alone — their windows are
// vacuous (the trigger is always inside its own window). Co-actor plans
// probe D as a threshold's do but read no S lists, so they key apart.
func shareKeyOf(s *Shape) string {
	var b strings.Builder
	if s.bindsTrigger() {
		b.WriteString("trig|")
		for _, w := range s.WindowMS {
			if w > 0 {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	probe := "dyn"
	if s.CoActors {
		probe = "co"
	}
	fmt.Fprintf(&b, "%s|fan%d|", probe, s.MaxFanout)
	for _, w := range s.WindowMS {
		fmt.Fprintf(&b, "%d,", w)
	}
	return b.String()
}

// Name implements Program.
func (p *PlannedProgram) Name() string { return p.name }

// Shape returns a copy of the program's shape.
func (p *PlannedProgram) Shape() Shape {
	s := p.shape
	s.ExpandCaps = slices.Clone(s.ExpandCaps)
	return s
}

// Ops lists the program's shape as probe ops (PlanOps): what EXPLAIN prints.
func (p *PlannedProgram) Ops() []Op { return PlanOps(p.shape) }

// ShareKey identifies the program's shared probe prefix. Programs with
// equal keys can be grouped under one PlannedGroup.
func (p *PlannedProgram) ShareKey() string { return p.shareKey }

// OnEdge implements Program via pooled scratch.
func (p *PlannedProgram) OnEdge(ctx *Context, e graph.Edge) []Candidate {
	s := GetScratch()
	out := p.OnEdgeScratch(ctx, e, s)
	PutScratch(s)
	return out
}

// OnEdgeScratch implements ScratchProgram: the program as a group of one,
// through the same prefix and suffix code a shared group runs. The only
// heap allocation on a warmed-up scratch is the emitted candidates.
func (p *PlannedProgram) OnEdgeScratch(ctx *Context, e graph.Edge, s *Scratch) []Candidate {
	var res [1][]Candidate
	p.solo.DetectInto(ctx, e, s, res[:], soloSlots)
	return res[0]
}

// soloSlots maps a group of one's only member to result slot 0.
var soloSlots = []int{0}

// bindTrigger is the k=1 shape: the trigger actor is the sole support (left
// in s.bs/s.lists) and its follower list is the initial frontier.
func bindTrigger(ctx *Context, e graph.Edge, s *Scratch) graph.AdjList {
	l := ctx.S.Followers(e.Src)
	if len(l) == 0 {
		return nil
	}
	s.bs = append(s.bs[:0], e.Src)
	s.lists = append(s.lists[:0], l)
	return l
}

// probeStatic resolves the follower list of every recent actor in
// s.recent into s.bs/s.lists, dropping actors nobody follows.
func probeStatic(ctx *Context, s *Scratch) []graph.AdjList {
	bs := s.bs[:0]
	lists := s.lists[:0]
	for _, in := range s.recent {
		l := ctx.S.Followers(in.B)
		if len(l) == 0 {
			continue
		}
		bs = append(bs, in.B)
		lists = append(lists, l)
	}
	s.bs, s.lists = bs, lists
	return lists
}

// expandFrontier replaces the survivor frontier with the union of its
// members' follower lists — one more static hop toward the user. The
// sources and their lists are kept in s.bs2/s.lists2 for via attribution;
// the result ping-pongs between s.ex1 and s.ex2 so consecutive expansions
// (and the group's shared survivors in s.as) never alias. A positive limit
// caps the survivors expanded, bounding the frontier at limit ×
// max-follower-list; survivors are sorted, so the cap is deterministic.
func expandFrontier(ctx *Context, s *Scratch, cur graph.AdjList, limit, round int) graph.AdjList {
	if limit > 0 && len(cur) > limit {
		cur = cur[:limit]
	}
	bs2 := s.bs2[:0]
	lists2 := s.lists2[:0]
	for _, m := range cur {
		l := ctx.S.Followers(m)
		if len(l) == 0 {
			continue
		}
		bs2 = append(bs2, m)
		lists2 = append(lists2, l)
	}
	s.bs2, s.lists2 = bs2, lists2
	if len(lists2) == 0 {
		return nil
	}
	dst := s.ex1[:0]
	if round%2 == 0 {
		dst = s.ex2[:0]
	}
	out := graph.ThresholdIntersectInto(dst, lists2, 1, &s.g)
	if round%2 == 0 {
		s.ex2 = out
	} else {
		s.ex1 = out
	}
	return out
}

// emit stages the member's candidates from its final frontier in s.stage:
// never recommend a user to themselves, skip users already following the
// item. cnt, when non-nil, is the kernel's per-survivor support count and cur
// the group's shared survivors, of which the member's frontier is those with
// cnt[i] >= k. A staged candidate has no Via yet: its elements are staged in
// s.viaElems and s.refs says where, until HandOver gives everything staged
// one window of the Via chunk. Via attribution depends on how far the
// frontier was expanded: unexpanded survivors carry their full support set,
// staged once per survivor and shared by every member that emits the user;
// one expansion carries the connector's support set; deeper expansions carry
// just the immediate connector (exact attribution is not tracked through two
// unions).
func (p *PlannedProgram) emit(ctx *Context, e graph.Edge, s *Scratch, cur graph.AdjList, cnt []int) {
	start := len(s.stage)
	for i, a := range cur {
		if cnt != nil && cnt[i] < p.shape.K {
			continue
		}
		if a == e.Dst {
			continue
		}
		if ctx.Follows != nil && ctx.Follows(a, e.Dst) {
			continue
		}
		var via viaRef
		if len(p.shape.ExpandCaps) == 0 {
			via = s.sharedVia(i, a)
		} else {
			conn, ok := connectorOf(a, s)
			if !ok {
				continue
			}
			via.off = len(s.viaElems)
			if len(p.shape.ExpandCaps) == 1 {
				s.viaElems = supportersOf(s.viaElems, conn, s.bs, s.lists)
			} else {
				s.viaElems = append(s.viaElems, conn)
			}
			via.n = len(s.viaElems) - via.off
		}
		s.refs = append(s.refs, via)
		s.stage = append(s.stage, Candidate{
			User:         a,
			Item:         e.Dst,
			Trigger:      e,
			DetectedAtMS: e.TS,
			Program:      p.name,
			Score:        float64(via.n),
		})
		if p.shape.MaxCandidates > 0 && len(s.stage)-start >= p.shape.MaxCandidates {
			break
		}
	}
}

// emitCoActors stages the co-actor shape's candidates: each actor in the
// group's s.recent, freshest first, is recommended e.Src unless it is either
// end of the trigger or already follows e.Src; fresher co-action scores
// higher, in (0, 1]. The member's candidates share one staged Via, [e.Dst].
func (p *PlannedProgram) emitCoActors(ctx *Context, e graph.Edge, s *Scratch) {
	win, start := p.shape.WindowMS[e.Type], len(s.stage)
	var via viaRef
	for _, in := range s.recent {
		if in.B == e.Src || in.B == e.Dst || ctx.Follows != nil && ctx.Follows(in.B, e.Src) {
			continue
		}
		if via.n == 0 {
			via = viaRef{len(s.viaElems), 1}
			s.viaElems = append(s.viaElems, e.Dst)
		}
		s.refs = append(s.refs, via)
		s.stage = append(s.stage, Candidate{
			User: in.B, Item: e.Src, Trigger: e, DetectedAtMS: e.TS, Program: p.name,
			Score: 1 - float64(e.TS-in.TS)/float64(win+1),
		})
		if p.shape.MaxCandidates > 0 && len(s.stage)-start >= p.shape.MaxCandidates {
			break
		}
	}
}

// supportersOf appends to via the B's whose follower lists contain a, in the
// order of bs. Survivor sets are small, so a binary-search pass per survivor
// is cheap.
func supportersOf(via []graph.VertexID, a graph.VertexID, bs []graph.VertexID, lists []graph.AdjList) []graph.VertexID {
	for i, l := range lists {
		if l.Contains(a) {
			via = append(via, bs[i])
		}
	}
	return via
}

// viaRef places a Via among the staged Via elements.
type viaRef struct{ off, n int }

// stageRun assigns the staged candidates stage[lo:hi] — one program's, for one
// event — to a result slot.
type stageRun struct{ slot, lo, hi int }

// sharedVia returns where the Via of the group-event's survivor i — user a —
// is staged, staging it on first use: the supports holding a, in the order of
// s.bs. Every member that emits a gets the one range. s.memo grows to the
// furthest survivor emitted, not to the frontier; n == 0 marks a survivor not
// staged yet (a survivor has at least one support).
func (s *Scratch) sharedVia(i int, a graph.VertexID) viaRef {
	for i >= len(s.memo) {
		s.memo = append(s.memo, viaRef{})
	}
	if s.memo[i].n == 0 {
		off := len(s.viaElems)
		s.viaElems = supportersOf(s.viaElems, a, s.bs, s.lists)
		s.memo[i] = viaRef{off, len(s.viaElems) - off}
		s.viaSet = append(s.viaSet, i)
	}
	return s.memo[i]
}

// connectorOf finds the first source of the last expansion round whose
// follower list contains a.
func connectorOf(a graph.VertexID, s *Scratch) (graph.VertexID, bool) {
	for j, l := range s.lists2 {
		if l.Contains(a) {
			return s.bs2[j], true
		}
	}
	return 0, false
}

// ResultSlots returns a scratch-backed slice of n candidate slots, all
// nil: one per registered program, for a caller that parks per-program
// results (DetectInto's res) before reading them in registration order.
// Callers should nil consumed entries so a pooled Scratch does not retain
// candidates.
func (s *Scratch) ResultSlots(n int) [][]Candidate {
	if cap(s.res) < n {
		s.res = make([][]Candidate, n)
	}
	s.res = s.res[:n]
	for i := range s.res {
		s.res[i] = nil
	}
	return s.res
}

// PlannedGroup is one node of the engine's shared execution trie: the
// members share an identical probe prefix (same trigger filter and
// windows, same probe kind, same fanout cap — see ShareKey), so the
// per-event D lookup, window scan, and S expansion run once for the whole
// group — and so does the threshold: one kernel pass at the group's smallest
// k returns every survivor with its support count, and a member's frontier
// is the survivors counted at least its k. Members are ordered by ascending
// k so the first k no survivor reaches short-circuits the rest. Expansions
// and emissions run per member with per-program candidate attribution
// intact; one more motif of a known key costs a filter and an emit. A group
// of one is how a plan runs alone.
type PlannedGroup struct {
	members []*PlannedProgram
	byK     []int // member indices ordered by ascending k (stable)
}

// NewPlannedGroup groups members sharing one ShareKey. At least one member
// is required; mixed keys are a programmer error.
func NewPlannedGroup(members []*PlannedProgram) (*PlannedGroup, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("motif: a planned group needs at least one member")
	}
	for _, m := range members[1:] {
		if key := members[0].shareKey; m.shareKey != key {
			return nil, fmt.Errorf("motif: planned group mixes share keys %q and %q", key, m.shareKey)
		}
	}
	return groupOf(members), nil
}

// groupOf builds the group of a non-empty member list with one share key.
func groupOf(members []*PlannedProgram) *PlannedGroup {
	g := &PlannedGroup{members: members, byK: make([]int, len(members))}
	for i := range g.byK {
		g.byK[i] = i
	}
	// Insertion sort keeps equal-k members in registration order.
	for i := 1; i < len(g.byK); i++ {
		for j := i; j > 0 && members[g.byK[j]].shape.K < members[g.byK[j-1]].shape.K; j-- {
			g.byK[j], g.byK[j-1] = g.byK[j-1], g.byK[j]
		}
	}
	return g
}

// Chunk sizes of the emit hand-over: how many candidates, and how many Via
// elements, one chunk serves. An event needing more gets an array of its own.
const (
	candChunk = 256
	viaChunk  = 2048
)

// DetectInto runs the group against one edge, storing the candidates of
// member i (in the order given at construction) into res[slots[i]]. Slots not
// written remain untouched, so callers must pre-clear. The candidates of one
// call are one window of s's candidate chunk (each slot a capacity-limited
// window of that) and their Vias one of its Via chunk (see Candidate.Via),
// never rewritten; s holds neither on return. The shared prefix honors the
// same D-locality contract as every member would individually: dynamic reads
// confined to e.Dst's in-edge list.
func (g *PlannedGroup) DetectInto(ctx *Context, e graph.Edge, s *Scratch, res [][]Candidate, slots []int) {
	g.StageInto(ctx, e, s, slots)
	s.HandOver(res)
}

// StageInto is DetectInto without the hand-over: member i's candidates stay
// staged in s under slot slots[i] until s.HandOver, so a caller running
// several groups over one event (the engine) hands them over as one window.
// Until then s must not be passed to a program: a plan's OnEdgeScratch hands
// over whatever is staged.
func (g *PlannedGroup) StageInto(ctx *Context, e graph.Edge, s *Scratch, slots []int) {
	// The prefix parameters are the share key's, equal across members. The
	// trigger type comes from the stream: one outside the window table is
	// rejected like one the plan does not accept.
	prefix := g.members[0]
	if int(e.Type) >= NumEdgeTypes {
		return
	}
	win := prefix.shape.WindowMS[e.Type]
	if win <= 0 {
		return
	}
	// The shared survivors with, past a threshold, the support count of each
	// (nil for a bound trigger: it is every survivor's one support), and the
	// largest count: the largest k any member can still meet.
	var surv graph.AdjList
	var cnt []int
	maxCnt := 1
	if prefix.shape.bindsTrigger() {
		if surv = bindTrigger(ctx, e, s); surv == nil {
			return
		}
	} else {
		// The fanout cap is pushed into the store query so a viral target with
		// thousands of in-window actors costs O(fanout), not O(window); the
		// store returns the freshest distinct actors.
		recent := ctx.D.RecentLimitInto(s.recent[:0], e.Dst, e.TS-win, prefix.shape.MaxFanout)
		s.recent = recent
		minK := g.members[g.byK[0]].shape.K
		if len(recent) < minK {
			return
		}
		if !prefix.shape.CoActors {
			lists := probeStatic(ctx, s)
			if len(lists) < minK {
				return
			}
			s.as, s.cnt = graph.ThresholdCountsInto(s.as[:0], s.cnt[:0], lists, minK, &s.g)
			s.passes++
			if len(s.as) == 0 {
				return
			}
			surv, cnt, maxCnt = s.as, s.cnt, slices.Max(s.cnt)
		}
	}
	for _, idx := range g.byK {
		m := g.members[idx]
		if m.shape.K > maxCnt {
			break // ascending k: no survivor reaches a later member's either
		}
		lo := len(s.stage)
		m.runSuffix(ctx, e, s, surv, cnt)
		if hi := len(s.stage); hi > lo {
			s.runs = append(s.runs, stageRun{slots[idx], lo, hi})
		}
	}
	// The memo indexes this group's survivors; the next group's are others.
	for _, i := range s.viaSet {
		s.memo[i] = viaRef{}
	}
	s.viaSet = s.viaSet[:0]
}

// HandOver issues everything staged as one window of the candidate chunk —
// the runs in ascending slot order, which is registration order — with the
// Vias in one window of the Via chunk, a capacity-limited window of it per
// candidate, and leaves nothing the event emitted in the scratch. A non-nil
// res also receives each slot's part of the window. It returns nil when
// nothing is staged. The lease is the windows' hold on their chunks: on a
// scratch bound to a recycler, releasing it once the candidates are read lets
// the chunks be issued again when the scratch has moved past them; until
// then, and forever if no one releases it, the windows are never rewritten.
func (s *Scratch) HandOver(res [][]Candidate) ([]Candidate, Lease) {
	if len(s.stage) == 0 {
		return nil, Lease{}
	}
	slices.SortFunc(s.runs, func(a, b stageRun) int { return a.slot - b.slot })
	var cf *freeList[Candidate]
	var vf *freeList[graph.VertexID]
	if s.rec != nil {
		cf, vf = &s.rec.cands, &s.rec.vias
	}
	out, cc := issue(&s.cands, &s.cc, cf, len(s.stage), candChunk)
	vias, vc := issue(&s.vias, &s.vc, vf, len(s.viaElems), viaChunk)
	copy(vias, s.viaElems)
	at := 0
	for _, r := range s.runs {
		n := r.hi - r.lo
		w := out[at : at+n : at+n]
		copy(w, s.stage[r.lo:r.hi])
		for i, ref := range s.refs[r.lo:r.hi] {
			w[i].Via = vias[ref.off : ref.off+ref.n : ref.off+ref.n]
		}
		if res != nil {
			res[r.slot] = w
		}
		at += n
	}
	clear(s.stage)
	s.stage, s.refs, s.runs, s.viaElems = s.stage[:0], s.refs[:0], s.runs[:0], s.viaElems[:0]
	return out, Lease{cc, vc}
}

// runSuffix executes the member's post-prefix steps (expansions and emit) from
// the group's shared survivors, or from its probed actors for a co-actor
// plan. It must not touch s.recent, s.bs, s.lists, s.as or s.cnt — those
// belong to the group prefix and later members.
func (p *PlannedProgram) runSuffix(ctx *Context, e graph.Edge, s *Scratch, surv graph.AdjList, cnt []int) {
	if p.shape.CoActors {
		p.emitCoActors(ctx, e, s)
		return
	}
	if len(p.shape.ExpandCaps) == 0 {
		p.emit(ctx, e, s, surv, cnt)
		return
	}
	cur := surv
	if cnt != nil {
		cur = s.front[:0]
		for i, a := range surv {
			if cnt[i] >= p.shape.K {
				cur = append(cur, a)
			}
		}
		s.front = cur
	}
	for i, limit := range p.shape.ExpandCaps {
		cur = expandFrontier(ctx, s, cur, limit, i+1)
		if len(cur) == 0 {
			return
		}
	}
	p.emit(ctx, e, s, cur, nil)
}
