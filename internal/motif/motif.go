// Package motif implements online motif detection over the S and D stores.
// A motif program is invoked once per incoming dynamic edge and emits
// recommendation candidates the moment the motif completes — the paper's
// novel "twist" over batch motif detection. Every motif is a plan: a Shape
// built by NewDiamond (the production algorithm of §2 and its content
// co-action variant), NewFreshFollow (k=1), the motifdsl planner (static
// chains up to three hops, per-type windows) or NewTriangleClosure
// (recipients drawn from D), and run by the one executor in planned.go.
package motif

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/statstore"
)

// Candidate is one raw recommendation produced by a program: "push item
// Item to user User because the supporting B's acted on it". Candidates
// flow into the delivery pipeline, which dedups and rate-limits them.
type Candidate struct {
	// User is the A receiving the recommendation.
	User graph.VertexID
	// Item is the C being recommended (an account for follow motifs, a
	// tweet for content motifs).
	Item graph.VertexID
	// Via lists the supporting B's: followings of User that acted on Item
	// within the window. It has no spare capacity (len == cap: an append
	// copies, it never writes into a neighbour). Its backing array is a chunk
	// (viaChunk elements) shared with the other candidates issued from that
	// chunk — other users', other programs', other triggers' — and the
	// members of a share group that recommend one user for one trigger share
	// the very window; the candidates a co-actor plan emits for one trigger
	// share its one-element window, [Trigger.Dst]. The same holds for a
	// candidate slice: it is a window of a chunk of candChunk candidates.
	// Never write through either. Both stay as issued until the hand-over's
	// Lease is released: the candidate path releases it once the candidates
	// are logged and delivered (or encoded for the wire), and a recycled chunk
	// is then issued again. So whoever keeps a candidate beyond that copies
	// its Via — the partition's candidate log and the delivery pipeline's
	// notifications do. This is what every plan hands over, through an
	// engine, a PlannedGroup or its own OnEdge; a hand-over whose lease no one
	// releases keeps its windows as issued for as long as they are reachable.
	Via []graph.VertexID
	// Trigger is the edge whose arrival completed the motif.
	Trigger graph.Edge
	// DetectedAtMS is when detection ran (stream time, Unix ms).
	DetectedAtMS int64
	// Program names the emitting program.
	Program string
	// Score ranks the candidate; more supporting B's score higher.
	Score float64
}

// MinCandidateBytes is the shortest candidate encoding: ten fields of one
// byte each.
const MinCandidateBytes = 10

// maxProgramName bounds a decoded program name.
const maxProgramName = 1 << 12

// AppendCandidate appends the one encoding of a candidate, in checkpoint
// segments and wire frames alike: User, Item, the Via count and elements as
// uvarints, the trigger through graph.AppendEdge, DetectedAtMS as a zigzag
// varint, Program length-prefixed, and Score's IEEE 754 bits as a uvarint.
func AppendCandidate(b []byte, c Candidate) []byte {
	b = binary.AppendUvarint(b, uint64(c.User))
	b = binary.AppendUvarint(b, uint64(c.Item))
	b = binary.AppendUvarint(b, uint64(len(c.Via)))
	for _, v := range c.Via {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = graph.AppendEdge(b, c.Trigger)
	b = binary.AppendVarint(b, c.DetectedAtMS)
	b = binary.AppendUvarint(b, uint64(len(c.Program)))
	b = append(b, c.Program...)
	return binary.AppendUvarint(b, math.Float64bits(c.Score))
}

// ReadCandidate reads a candidate as AppendCandidate wrote it into c, taking
// its Via from vias once Count has bounded the length against the bytes left.
// With c nil it only checks the encoding — every field, the Via count and
// the program name's bound — and keeps nothing: how a checkpoint walk
// validates a candidate it carries as bytes.
func ReadCandidate(r *codecutil.Cursor, vias *codecutil.Arena[graph.VertexID], c *Candidate) {
	var check Candidate
	keep := c != nil
	if !keep {
		c = &check
	}
	c.User = graph.VertexID(r.U("candidate user"))
	c.Item = graph.VertexID(r.U("candidate item"))
	n := r.Count("candidate via count", 1)
	if keep {
		c.Via = vias.Take(n)
	}
	for i := 0; i < n; i++ {
		v := graph.VertexID(r.U("candidate via"))
		if keep {
			c.Via[i] = v
		}
	}
	c.Trigger = graph.ReadEdge(r, "candidate trigger")
	c.DetectedAtMS = r.I("candidate detected-at")
	if keep {
		c.Program = r.String("candidate program", maxProgramName)
	} else {
		r.Bytes("candidate program", maxProgramName)
	}
	c.Score = math.Float64frombits(r.U("candidate score"))
}

// Context carries the partition-local stores a program reads. The engine
// that owns the context inserts each edge into D exactly once before
// invoking programs, so programs must never write to D themselves.
type Context struct {
	// S is the static inverted adjacency (B → sorted A's), already
	// restricted to the partition's A's.
	S *statstore.Store
	// D is the dynamic store of recent B→C edges (full stream).
	D *dynstore.Store
	// Follows reports whether a must not be recommended c here: a follows c,
	// or a is not the partition's own (a co-actor recipient, drawn from D,
	// may be anyone). Nil disables the check.
	Follows func(a, c graph.VertexID) bool
}

// Program detects one motif shape: a plan (*PlannedProgram), the only kind
// the engine runs. OnEdge is called after e has been inserted into ctx.D and
// returns the candidates completed by e. Implementations must be safe for
// concurrent OnEdge calls.
//
// Locality contract: a program's D reads must be confined to the in-edge
// list of e.Dst (the triggering edge's target). Every plan honors this, and
// the cluster's batched apply path depends on it: events with distinct
// targets are detected concurrently, which is only equivalent to sequential
// apply when no program peeks at another target's dynamic state. S reads
// are unrestricted (S is immutable between reloads).
type Program interface {
	// Name identifies the program in candidates and metrics.
	Name() string
	// OnEdge reports the candidates whose motif e completes.
	OnEdge(ctx *Context, e graph.Edge) []Candidate
}

// Scratch holds the reusable per-invocation buffers of the detection hot
// path. A Scratch is single-goroutine; recycle via GetScratch/PutScratch
// (or hold one per worker) so a warmed-up caller pays zero heap
// allocation per event that emits no candidates. What an emitting event
// hands over is a capacity-limited window of the scratch's current candidate
// chunk and one of its Via chunk (see Candidate.Via), bump-allocated: the
// chunk, not the event, is the allocation unit. A scratch bound to a
// Recycler (NewScratch) takes each new chunk from it, and a chunk goes back
// once the scratch has moved past it and every window issued from it is
// released (Lease), so at its working set such a scratch allocates nothing;
// any other scratch allocates every chunk. A Scratch owns the unissued tails
// of its two chunks and nothing issued: between hand-overs it holds no
// Candidate and no window a Candidate points into, and two scratches share
// no chunk.
type Scratch struct {
	recent []dynstore.InEdge
	bs     []graph.VertexID
	lists  []graph.AdjList
	g      graph.Scratch

	// as holds the group-event's shared threshold survivors and cnt, index
	// for index, how many support lists hold each. passes counts the kernel
	// passes that produced them: one per (group, event) that reaches the
	// threshold, however many distinct k the members ask for.
	as     graph.AdjList
	cnt    []int
	passes uint64

	// Expansion buffers for planned chain programs: an expanding member's
	// own frontier (the survivors counted at least its k), the sources and
	// follower lists of the current expansion round, plus ping-pong frontiers
	// so an expansion never clobbers the shared survivors in as.
	front  graph.AdjList
	bs2    []graph.VertexID
	lists2 []graph.AdjList
	ex1    graph.AdjList
	ex2    graph.AdjList

	// Emit staging of one event: the candidates staged since the last
	// hand-over back to back, runs[i] saying which result slot stage[lo:hi]
	// belongs to; their Via elements in viaElems with refs[j] placing
	// stage[j]'s, all copied out once by HandOver; memo[i] the place of the
	// current group's survivor i's Via once some member has emitted it, viaSet
	// the indices to reset.
	stage    []Candidate
	refs     []viaRef
	runs     []stageRun
	viaElems []graph.VertexID
	memo     []viaRef
	viaSet   []int

	// cands and vias are the unissued tails of the current candidate chunk
	// and Via chunk; HandOver issues windows off their fronts. With a
	// recycler (rec), cc and vc are those chunks, and the scratch holds a
	// reference to each until it moves past it.
	cands []Candidate
	vias  []graph.VertexID
	cc    *chunk[Candidate]
	vc    *chunk[graph.VertexID]
	rec   *Recycler

	// res backs ResultSlots; its callers nil the entries they consume so a
	// pooled scratch never retains candidates.
	res [][]Candidate
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch returns a Scratch from the pool, buffers warmed by prior use.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch recycles s. The caller must not use s afterwards.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// ScratchProgram is the allocation-free variant of Program. OnEdgeScratch
// behaves exactly like OnEdge but takes caller-owned scratch for its
// intermediates, for a caller that runs one plan with a scratch of its own
// (the engine runs groups instead).
type ScratchProgram interface {
	Program
	// OnEdgeScratch reports the candidates whose motif e completes, using
	// s for intermediate buffers. The returned slice (when non-nil) is the
	// caller's to keep and never rewritten (a plan's is a window of s's
	// chunks: see Candidate.Via); the contents of s are not.
	OnEdgeScratch(ctx *Context, e graph.Edge, s *Scratch) []Candidate
}

// DiamondConfig parametrizes the diamond plan NewDiamond builds.
type DiamondConfig struct {
	// Name overrides the program name; empty selects "diamond".
	Name string
	// K is the minimum number of A's followings that must act on the same
	// item within the window (paper: k, production value 3).
	K int
	// Window is the freshness period τ.
	Window time.Duration
	// EdgeTypes restricts which actions trigger the motif. Empty means
	// follows only.
	EdgeTypes []graph.EdgeType
	// MaxFanout caps the recent B's considered per event, bounding work on
	// viral items; 0 means unlimited.
	MaxFanout int
	// MaxCandidates caps emitted candidates per event; 0 means unlimited.
	MaxCandidates int
}

// NewDiamond returns the plan of the production algorithm of §2: on edge
// B→C, fetch the other recent B's pointing at C from D; if at least K, look
// up each B's followers in S and emit the K-threshold intersection. The
// result is an ordinary planned program — the same shape, share key and
// executor a DSL declaration of the shape compiles to. K < 2, a window under
// a millisecond (stream time is in milliseconds) and a trigger type outside
// the edge-type table are programmer errors and panic.
func NewDiamond(cfg DiamondConfig) *PlannedProgram {
	if cfg.K < 2 {
		panic("motif: diamond requires K >= 2 (use NewFreshFollow for K=1)")
	}
	if cfg.Window < time.Millisecond {
		panic("motif: diamond requires a positive window")
	}
	if cfg.Name == "" {
		cfg.Name = "diamond"
	}
	if len(cfg.EdgeTypes) == 0 {
		cfg.EdgeTypes = []graph.EdgeType{graph.Follow}
	}
	s := Shape{K: cfg.K, MaxFanout: cfg.MaxFanout, MaxCandidates: cfg.MaxCandidates}
	for _, t := range cfg.EdgeTypes {
		if int(t) >= NumEdgeTypes {
			panic(fmt.Sprintf("motif: diamond trigger type %d is not an edge type", t))
		}
		s.WindowMS[t] = cfg.Window.Milliseconds()
	}
	return mustPlan(cfg.Name, s)
}

// NewFreshFollow returns the plan of the degenerate k=1 motif: every new
// B→C follow is broadcast to B's followers, at most maxCandidates of them
// per event (0 means unlimited). It exists to drive the delivery funnel
// experiment (E3) with realistic raw-candidate volume; production uses k≥2
// precisely because k=1 floods.
func NewFreshFollow(maxCandidates int) *PlannedProgram {
	// Any positive window accepts the type; a k=1 plan never reads it.
	return mustPlan("fresh-follow", Shape{
		WindowMS: [NumEdgeTypes]int64{graph.Follow: 1}, K: 1, MaxCandidates: maxCandidates,
	})
}

// NewTriangleClosure returns the plan of the co-action triangle, a motif of
// the kind the paper's conclusion anticipates: when B acts on C, B is
// recommended to each user A who also acted on C within the window, at most
// 64 of them, unless A follows B (the A→B edge closes the triangle A→C←B).
// Every trigger type fires it. A window under a millisecond panics.
func NewTriangleClosure(window time.Duration) *PlannedProgram {
	if window < time.Millisecond {
		panic("motif: triangle closure requires a positive window")
	}
	w := window.Milliseconds()
	return mustPlan("triangle-closure", Shape{
		WindowMS: [NumEdgeTypes]int64{w, w, w}, K: 1, MaxFanout: 64, CoActors: true,
	})
}

// mustPlan wraps NewPlannedProgram for the constructors above, whose shapes
// are legal by construction.
func mustPlan(name string, s Shape) *PlannedProgram {
	p, err := NewPlannedProgram(name, s)
	if err != nil {
		panic(err)
	}
	return p
}
