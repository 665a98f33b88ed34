package motifdsl

import (
	"fmt"
	"strings"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// Plan is a validated, executable form of a Spec: a motif.Shape run as a
// planned program, plus the rationale behind it for EXPLAIN. The planner
// generalizes the paper's two-hop diamond to static chains up to three hops
// deep, k-of-n support thresholds, and per-trigger-type freshness windows.
//
// There is no statistics catalog and nothing to search: with one dynamic
// and one static probe family a shape has one dataflow-valid op order, and
// the only choice is the k=1 prune (Plan.build). The degree figures EXPLAIN
// prints are fixed estimates. Planning is a single pass over the spec —
// microseconds per motif.
type Plan struct {
	Spec *Spec

	prog  *motif.PlannedProgram
	depth int      // static hops between user and support
	notes []string // greedy rationale, one line each
}

// Compile parses src and plans every declaration into runnable programs.
func Compile(src string) ([]motif.Program, error) {
	specs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]motif.Program, 0, len(specs))
	for _, s := range specs {
		p, err := PlanSpec(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Program())
	}
	return out, nil
}

// CompileOne parses and plans exactly one declaration.
func CompileOne(src string) (motif.Program, error) {
	spec, err := ParseOne(src)
	if err != nil {
		return nil, err
	}
	p, err := PlanSpec(spec)
	if err != nil {
		return nil, err
	}
	return p.Program(), nil
}

// defaultWindow applies when a dynamic hop omits 'within'.
const defaultWindow = 10 * time.Minute

// The planner's fixed estimates: the p90 count of distinct in-window actors
// per target and the p50 follower-list length. They only appear in EXPLAIN
// text, never in the shape or the results.
const (
	coldDynIn  = 8
	coldStatic = 16
	estSource  = "cold-start default"
)

// defaultExpandCap bounds the survivors carried into a chain expansion
// when no 'limit fanout' is declared, keeping deep chains from exploding
// on viral items.
const defaultExpandCap = 256

// maxChainDepth caps the static chain length (expansions are depth-1).
const maxChainDepth = 3

// PlanSpec semantically checks spec and produces a Plan.
func PlanSpec(spec *Spec) (*Plan, error) {
	var statics []*MatchClause
	var dynamics []*MatchClause
	for i := range spec.Matches {
		m := &spec.Matches[i]
		if m.Kind == StaticHop {
			statics = append(statics, m)
		} else {
			dynamics = append(dynamics, m)
		}
	}
	if len(dynamics) == 0 {
		return nil, errf(spec.Pos, "motif %q: need one dynamic hop ('=>')", spec.Name)
	}
	for _, d := range dynamics[1:] {
		if d.From != dynamics[0].From || d.To != dynamics[0].To {
			return nil, errf(d.Pos,
				"motif %q: more than one dynamic hop (%s=>%s and %s=>%s); only per-type windows over the same hop may repeat",
				spec.Name, dynamics[0].From, dynamics[0].To, d.From, d.To)
		}
	}
	support, item := dynamics[0].From, dynamics[0].To

	// Per-trigger-type windows: each dynamic clause contributes its types
	// at its window; a type declared twice is ambiguous.
	windowMS, err := typeWindowsOf(spec.Name, dynamics)
	if err != nil {
		return nil, err
	}

	// The static hops must form one simple chain USER -> ... -> SUPPORT.
	user, depth, err := chainOf(spec, statics, support)
	if err != nil {
		return nil, err
	}

	// Emit must be ITEM to USER (via SUPPORT).
	if spec.Emit.Item != item {
		return nil, errf(spec.Emit.Pos,
			"motif %q: emit item %q must be the dynamic hop target %q", spec.Name, spec.Emit.Item, item)
	}
	if spec.Emit.User != user {
		return nil, errf(spec.Emit.Pos,
			"motif %q: emit recipient %q must be the chain source %q", spec.Name, spec.Emit.User, user)
	}
	if spec.Emit.Via != "" {
		if spec.Emit.Via != support {
			return nil, errf(spec.Emit.Pos,
				"motif %q: emit via %q must be the support variable %q", spec.Name, spec.Emit.Via, support)
		}
		if depth > 2 {
			return nil, errf(spec.Emit.Pos,
				"motif %q: via attribution is not tracked through %d-hop chains; omit 'via'", spec.Name, depth)
		}
	}

	// Threshold: exactly one where clause, over the support variable.
	k := 0
	for _, w := range spec.Wheres {
		if w.Var != support {
			return nil, errf(w.Pos,
				"motif %q: count(%s) is not supported; the threshold must be over the support variable %q",
				spec.Name, w.Var, support)
		}
		if k != 0 {
			return nil, errf(w.Pos, "motif %q: duplicate count(%s) constraint", spec.Name, support)
		}
		k = w.Min
	}
	if k == 0 {
		return nil, errf(spec.Pos,
			"motif %q: missing 'where count(%s) >= k' support threshold", spec.Name, support)
	}

	fanout, maxCands := 0, 0
	for _, l := range spec.Limits {
		switch l.What {
		case "fanout":
			fanout = l.N
		case "candidates":
			maxCands = l.N
		}
	}

	p := &Plan{Spec: spec, depth: depth}
	prog, err := motif.NewPlannedProgram(spec.Name, p.build(k, windowMS, fanout, maxCands))
	if err != nil {
		return nil, errf(spec.Pos, "motif %q: %v", spec.Name, err)
	}
	p.prog = prog
	return p, nil
}

// typeWindowsOf merges the dynamic clauses into one per-trigger-type
// window table. A clause without explicit types means follow-only, and a
// clause without 'within' gets the default window. Note the window gates
// the *probe* at the trigger's type: the in-window actor scan counts every
// recent actor on the target regardless of which action they took, exactly
// like the plan NewDiamond builds.
func typeWindowsOf(name string, dynamics []*MatchClause) ([motif.NumEdgeTypes]int64, error) {
	var windowMS [motif.NumEdgeTypes]int64
	for _, d := range dynamics {
		types, err := edgeTypesOf(d)
		if err != nil {
			return windowMS, err
		}
		if len(types) == 0 {
			types = []graph.EdgeType{graph.Follow}
		}
		w := d.Window
		if w <= 0 {
			w = defaultWindow
		}
		for _, t := range types {
			if windowMS[t] != 0 {
				return windowMS, errf(d.Pos,
					"motif %q: duplicate window for edge type %s", name, t)
			}
			windowMS[t] = w.Milliseconds()
		}
	}
	return windowMS, nil
}

// chainOf validates that the static hops form one simple chain ending at
// the support variable and returns the chain's source (the user) and its
// length.
func chainOf(spec *Spec, statics []*MatchClause, support string) (string, int, error) {
	if len(statics) == 0 {
		return "", 0, errf(spec.Pos, "motif %q: need one static hop ('->')", spec.Name)
	}
	if len(statics) > maxChainDepth {
		return "", 0, errf(statics[maxChainDepth].Pos,
			"motif %q: static chains support at most %d hops, got %d", spec.Name, maxChainDepth, len(statics))
	}
	byFrom := make(map[string]*MatchClause, len(statics))
	isTo := make(map[string]bool, len(statics))
	for _, m := range statics {
		if byFrom[m.From] != nil {
			return "", 0, errf(m.Pos,
				"motif %q: static hops branch at %q; they must form a single chain", spec.Name, m.From)
		}
		byFrom[m.From] = m
		isTo[m.To] = true
	}
	start := ""
	for _, m := range statics {
		if !isTo[m.From] {
			if start != "" {
				return "", 0, errf(m.Pos,
					"motif %q: hops do not chain: static hops start at both %q and %q", spec.Name, start, m.From)
			}
			start = m.From
		}
	}
	if start == "" {
		return "", 0, errf(statics[0].Pos, "motif %q: static hops form a cycle", spec.Name)
	}
	at, steps := start, 0
	for byFrom[at] != nil {
		at = byFrom[at].To
		steps++
		if steps > len(statics) {
			break
		}
	}
	if steps != len(statics) || at != support {
		return "", 0, errf(spec.Pos,
			"motif %q: hops do not chain: static hops must form %s -> ... -> %s (the dynamic hop source)",
			spec.Name, start, support)
	}
	return start, len(statics), nil
}

// build returns the plan's shape, chosen by the greedy ordering rule: among
// the dataflow-valid probe orders, take the probe with the smallest expected
// output first and place the threshold at the narrowest point. With one
// dynamic and one static probe family there are two valid pipelines —
// window-probe-first, or (when the trigger alone satisfies the threshold)
// no window probe at all — and the fixed estimates appear only in the text
// of the rationale while the k=1 prune decides the shape.
func (p *Plan) build(k int, windowMS [motif.NumEdgeTypes]int64, fanout, maxCands int) motif.Shape {
	expandCap := fanout
	if expandCap <= 0 {
		expandCap = defaultExpandCap
	}
	expandCaps := make([]int, p.depth-1)
	for i := range expandCaps {
		expandCaps[i] = expandCap
	}
	if k == 1 {
		// The trigger edge is itself the single in-window support: the
		// dynamic-window probe and the threshold-intersect are pruned, the
		// window constraint is vacuously satisfied, and the plan reads no
		// dynamic state at all.
		p.note("k=1 prune: the trigger edge is always its own in-window support — dynamic-window probe and threshold-intersect eliminated ('within' is vacuously satisfied)")
	} else {
		effDyn := coldDynIn
		if fanout > 0 && fanout < effDyn {
			effDyn = fanout
		}
		p.note("dynamic-window probe ordered first: expected %d in-window actors/event (%s) vs %d followers per static list (%s) — the window filter is the most selective probe and early-exits below k=%d",
			effDyn, estSource, coldStatic, estSource, k)
		p.note("threshold-intersect k=%d placed at the narrowest point, before any chain expansion", k)
	}
	if p.depth > 1 {
		p.note("chain depth %d: %d expansion hop(s) after the threshold, survivors capped at %d per hop",
			p.depth, p.depth-1, expandCap)
	}
	return motif.Shape{WindowMS: windowMS, K: k, MaxFanout: fanout, ExpandCaps: expandCaps, MaxCandidates: maxCands}
}

func (p *Plan) note(format string, args ...interface{}) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// edgeTypesOf resolves the dynamic hop's type names.
func edgeTypesOf(m *MatchClause) ([]graph.EdgeType, error) {
	if len(m.EdgeTypes) == 0 {
		return nil, nil // defaults to follow
	}
	out := make([]graph.EdgeType, 0, len(m.EdgeTypes))
	for _, name := range m.EdgeTypes {
		switch name {
		case "follow":
			out = append(out, graph.Follow)
		case "retweet":
			out = append(out, graph.Retweet)
		case "favorite":
			out = append(out, graph.Favorite)
		default:
			return nil, errf(m.Pos, "unknown edge type %q (want follow, retweet, or favorite)", name)
		}
	}
	return out, nil
}

// Program returns the runnable program for the plan.
func (p *Plan) Program() motif.Program { return p.prog }

// Describe renders the plan as a multi-line EXPLAIN: the probe order with
// cost estimates, the sharing group, and the greedy rationale.
func (p *Plan) Describe() string {
	var b strings.Builder
	shape := "k-of-n diamond"
	if p.prog.Shape().K == 1 {
		shape = "fresh-follow broadcast (k=1)"
	}
	if p.depth > 1 {
		shape += fmt.Sprintf(", chain depth %d", p.depth)
	}
	fmt.Fprintf(&b, "plan %q (%s)\n", p.Spec.Name, shape)
	b.WriteString("  probe order (greedy, statistics-free):\n")
	for i, op := range p.prog.Ops() {
		fmt.Fprintf(&b, "    %d. %s", i+1, p.describeOp(op))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  sharing: key %s — plans with this key run the trigger filter and D/S probes once per event\n", p.prog.ShareKey())
	b.WriteString("  rationale:\n")
	for _, n := range p.notes {
		fmt.Fprintf(&b, "    - %s\n", n)
	}
	return b.String()
}

func (p *Plan) describeOp(op motif.Op) string {
	switch op.Kind {
	case motif.OpFilterTrigger:
		var parts []string
		for t := 0; t < motif.NumEdgeTypes; t++ {
			if op.WindowMS[t] > 0 {
				parts = append(parts, fmt.Sprintf("%s(within %s)",
					graph.EdgeType(t), time.Duration(op.WindowMS[t])*time.Millisecond))
			}
		}
		return "filter-trigger: " + strings.Join(parts, ", ")
	case motif.OpBindTrigger:
		return "bind-trigger: the acting B is the single support; S.followers(B) is the frontier"
	case motif.OpProbeDynamic:
		s := fmt.Sprintf("probe-dynamic D.recent(item): est ~%d in-window actors (%s), early-exit < %d",
			coldDynIn, estSource, op.K)
		if op.Limit > 0 {
			s += fmt.Sprintf(", fanout cap %d", op.Limit)
		}
		return s
	case motif.OpProbeStatic:
		return fmt.Sprintf("probe-static S.followers(B) per actor: est ~%d followers/list (%s)",
			coldStatic, estSource)
	case motif.OpThreshold:
		return fmt.Sprintf("threshold-intersect k=%d over the follower lists", op.K)
	case motif.OpExpand:
		return fmt.Sprintf("expand: one static hop toward the user (union of survivor follower lists, cap %d)", op.Limit)
	case motif.OpEmit:
		s := "emit item -> user with via attribution"
		if op.Limit > 0 {
			s += fmt.Sprintf(" (candidate cap %d)", op.Limit)
		}
		return s
	default:
		return op.Kind.String()
	}
}
