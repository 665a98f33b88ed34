package motif

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/statstore"
)

// refHandOver is the hand-over the chunked one replaced, kept as the
// differential reference (like ifaceHeapCountInto beside the kernel and
// refLog beside the candidate log): whatever is staged in s gets a fresh
// candidate array and a fresh Via array of the exact sizes, each run a
// capacity-limited window parked in its slot. It reads the staging and shares
// nothing with Scratch.HandOver.
func refHandOver(s *Scratch, res [][]Candidate) {
	if len(s.stage) == 0 {
		return
	}
	out := make([]Candidate, len(s.stage))
	copy(out, s.stage)
	vias := make([]graph.VertexID, len(s.viaElems))
	copy(vias, s.viaElems)
	for i, r := range s.refs {
		out[i].Via = vias[r.off : r.off+r.n : r.off+r.n]
	}
	for _, r := range s.runs {
		res[r.slot] = out[r.lo:r.hi:r.hi]
	}
	clear(s.stage)
	s.stage, s.refs, s.runs, s.viaElems = s.stage[:0], s.refs[:0], s.runs[:0], s.viaElems[:0]
}

// inOrder concatenates per-slot results in slot order: the registration
// order an event's candidates are handed over in.
func inOrder(res [][]Candidate) []Candidate {
	var out []Candidate
	for _, cands := range res {
		out = append(out, cands...)
	}
	return out
}

// span returns the addresses a non-empty candidate window starts at and ends
// before.
func span(w []Candidate) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(&w[0]))
	return lo, lo + uintptr(len(w))*unsafe.Sizeof(Candidate{})
}

// issuedWindows holds every event window a run handed over, to be checked
// once the run is over: by then any later hand-over that rewrote an earlier
// window, or issued memory twice, has happened.
type issuedWindows struct {
	got, want [][]Candidate
	// chunks counts the windows that did not start where the one before
	// ended — the chunks begun; largest is the longest window.
	chunks, largest int
	end             uintptr
}

// add records one event's window and the reference's answer for the event,
// comparing them at once too.
func (w *issuedWindows) add(t *testing.T, event int, got, want []Candidate) {
	t.Helper()
	sameCandidates(t, event, want, got)
	if len(got) == 0 {
		return
	}
	if len(got) != cap(got) {
		t.Fatalf("event %d: candidate window has len %d, cap %d", event, len(got), cap(got))
	}
	lo, hi := span(got)
	if lo != w.end {
		w.chunks++
	}
	w.end, w.largest = hi, max(w.largest, len(got))
	w.got, w.want = append(w.got, got), append(w.want, want)
}

// check holds the windows to the hand-over contract after the fact: each
// still equals what the reference produced (no later event rewrote it);
// every Via has len == cap, so an append copies; and writing through one Via
// window changes no candidate but those holding that very window (the members
// of a group that recommend one user for one trigger).
func (w *issuedWindows) check(t *testing.T) {
	t.Helper()
	if len(w.got) == 0 {
		t.Fatal("vacuous run: nothing emitted")
	}
	for _, cands := range w.got {
		for _, c := range cands {
			if len(c.Via) != cap(c.Via) {
				t.Fatalf("candidate %v: Via has len %d, cap %d", c, len(c.Via), cap(c.Via))
			}
			_ = append(c.Via, ^graph.VertexID(0))
		}
	}
	for i := range w.got {
		sameCandidates(t, i, w.want[i], w.got[i])
	}
	// Number the distinct Via windows and write each one's number through it;
	// a window overlapping another ends up holding two numbers.
	ids := map[*graph.VertexID]graph.VertexID{}
	for _, cands := range w.got {
		for _, c := range cands {
			if len(c.Via) == 0 {
				continue
			}
			id, seen := ids[&c.Via[0]]
			if !seen {
				id = graph.VertexID(len(ids) + 1)
				ids[&c.Via[0]] = id
			}
			for j := range c.Via {
				c.Via[j] = id
			}
		}
	}
	for _, cands := range w.got {
		for _, c := range cands {
			for _, v := range c.Via {
				if v != ids[&c.Via[0]] {
					t.Fatalf("candidate %v: its Via was written through another candidate's", c)
				}
			}
		}
	}
}

// TestHandOverMatchesReference runs the groups of the planned-executor fuzz
// seeds through the chunked hand-over and through refHandOver, each on a
// scratch of its own over one world, and requires the same candidates in the
// same slots — the slots consecutive windows of one, in slot order — event by
// event and again when the run is over.
func TestHandOverMatchesReference(t *testing.T) {
	const follow, retweet, favorite = graph.Follow, graph.Retweet, graph.Favorite
	rows := []struct {
		seed                          int64
		k, fan, cands, depth, members int
		types                         []graph.EdgeType
	}{
		{1, 2, 0, 0, 1, 1, []graph.EdgeType{follow}},
		{2, 3, 64, 100, 1, 1, []graph.EdgeType{follow}},
		{3, 2, 8, 3, 1, 1, []graph.EdgeType{retweet, favorite}},
		{4, 4, 16, 0, 1, 1, []graph.EdgeType{follow, retweet}},
		{7, 1, 0, 5, 1, 1, []graph.EdgeType{follow}},
		{11, 3, 32, 0, 1, 5, []graph.EdgeType{follow, retweet}},
		{12, 1, 0, 9, 3, 3, []graph.EdgeType{follow, favorite}},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("seed%d", r.seed), func(t *testing.T) {
			win := windowsOf(10*time.Minute, r.types...)
			plans := make([]*PlannedProgram, r.members)
			slots := make([]int, r.members)
			for i := range plans {
				k, depth := r.k, 1+(r.depth-1+i)%3
				if k >= 2 {
					k = 2 + (r.k-2+i)%4
				}
				// Registration order is neither construction nor ascending-k order.
				slots[i] = (i + 2) % r.members
				p, err := NewPlannedProgram(fmt.Sprintf("m%d", i), Shape{
					WindowMS: win, K: k, MaxFanout: r.fan, ExpandCaps: make([]int, depth-1), MaxCandidates: r.cands,
				})
				if err != nil {
					t.Fatal(err)
				}
				plans[i] = p
			}
			g, err := NewPlannedGroup(plans)
			if err != nil {
				t.Fatal(err)
			}
			ctx, stream := randomWorld(r.seed, 30, 260, 1200)
			s, ref := new(Scratch), new(Scratch)
			var issued issuedWindows
			for i, e := range stream {
				ctx.D.Insert(e)
				got, want := make([][]Candidate, r.members), make([][]Candidate, r.members)
				g.DetectInto(ctx, e, s, got, slots)
				scratchHoldsNothing(t, s)
				g.StageInto(ctx, e, ref, slots)
				refHandOver(ref, want)
				// The slots are consecutive windows of one: whole, from the first
				// slot's start.
				var whole []Candidate
				var end uintptr
				for j := range got {
					sameCandidates(t, i, want[j], got[j])
					if len(got[j]) == 0 {
						continue
					}
					lo, hi := span(got[j])
					if whole == nil {
						whole = unsafe.Slice(&got[j][0], len(inOrder(got)))
					} else if lo != end {
						t.Fatalf("event %d: slot %d does not start where the slot before ended", i, j)
					}
					end = hi
				}
				issued.add(t, i, whole, inOrder(want))
			}
			issued.check(t)
		})
	}
}

// handOverWorld is a world whose events come in two sizes. B's 1..8 are
// followed by 260 users each, so an event on targets 50..53 recommends to
// hundreds of users with up to eight supports each: more candidates than
// candChunk and more Via elements than viaChunk. B's 11..13 are followed by
// five users, so an event on targets 60..63 emits a handful, and a chunk
// holds many of them. The stream alternates the two.
func handOverWorld(events int) (*Context, []graph.Edge) {
	var static []graph.Edge
	for a := 1000; a < 1260; a++ {
		for b := 1; b <= 8; b++ {
			static = append(static, graph.Edge{Src: graph.VertexID(a), Dst: graph.VertexID(b)})
		}
	}
	for a := 2000; a < 2005; a++ {
		for b := 11; b <= 13; b++ {
			static = append(static, graph.Edge{Src: graph.VertexID(a), Dst: graph.VertexID(b)})
		}
	}
	b := &statstore.Builder{}
	ctx := &Context{
		S: statstore.New(b.Build(static)),
		D: dynstore.New(dynstore.Options{Retention: time.Hour, MaxPerTarget: 256}),
	}
	stream := make([]graph.Edge, events)
	for i := range stream {
		e := graph.Edge{Type: graph.Follow, TS: 1_000_000 + int64(i)*100}
		if i%8 == 7 {
			e.Src, e.Dst = graph.VertexID(1+i/8%8), graph.VertexID(50+i/64%4)
		} else {
			e.Src, e.Dst = graph.VertexID(11+i%3), graph.VertexID(60+i/3%4)
		}
		stream[i] = e
	}
	return ctx, stream
}

// engineSet is a registration order of six plans run the way the engine
// runs them: two share groups whose members interleave, and the triangle
// closure — a third group, of one — between them.
type engineSet struct {
	groups []*PlannedGroup
	slots  [][]int
	progs  int
}

func newEngineSet(t *testing.T) *engineSet {
	t.Helper()
	dia := func(name string, k int) *PlannedProgram {
		return NewDiamond(DiamondConfig{Name: name, K: k, Window: 10 * time.Minute, MaxFanout: 64})
	}
	bcast, err := NewPlannedProgram("bcast", Shape{WindowMS: windowsOf(time.Minute), K: 1})
	if err != nil {
		t.Fatal(err)
	}
	diamonds, err := NewPlannedGroup([]*PlannedProgram{dia("k3", 3), dia("k2", 2), dia("k5", 5)})
	if err != nil {
		t.Fatal(err)
	}
	bcasts, err := NewPlannedGroup([]*PlannedProgram{bcast, NewFreshFollow(3)})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := NewPlannedGroup([]*PlannedProgram{NewTriangleClosure(10 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	// Registration order: k3, bcast, triangle, k2, fresh-follow, k5.
	return &engineSet{
		groups: []*PlannedGroup{diamonds, bcasts, tri},
		slots:  [][]int{{0, 3, 5}, {1, 4}, {2}},
		progs:  6,
	}
}

// detect is core.Engine.applyOne's sequence past the D insert: the groups
// staged, one hand-over.
func (ps *engineSet) detect(ctx *Context, e graph.Edge, s *Scratch) []Candidate {
	for i, g := range ps.groups {
		g.StageInto(ctx, e, s, ps.slots[i])
	}
	out, _ := s.HandOver(nil)
	return out
}

// reference is what the hand-over replaced: every group's candidates in
// arrays of their own, copied together in registration order.
func (ps *engineSet) reference(ctx *Context, e graph.Edge, s *Scratch) []Candidate {
	res := make([][]Candidate, ps.progs)
	for i, g := range ps.groups {
		g.StageInto(ctx, e, s, ps.slots[i])
		refHandOver(s, res)
	}
	return inOrder(res)
}

// TestHandOverRegistrationOrder is the engine's hand-over against the
// reference with three groups' members interleaved, over a stream that puts
// chunk boundaries between the small events of a batch and has events larger
// than a chunk.
func TestHandOverRegistrationOrder(t *testing.T) {
	ps := newEngineSet(t)
	ctx, stream := handOverWorld(800)
	s, ref := new(Scratch), new(Scratch)
	var issued issuedWindows
	programs := map[string]bool{}
	mostVia := 0
	for i, e := range stream {
		ctx.D.Insert(e)
		got := ps.detect(ctx, e, s)
		scratchHoldsNothing(t, s)
		issued.add(t, i, got, ps.reference(ctx, e, ref))
		vias := map[*graph.VertexID]bool{}
		elems := 0
		for _, c := range got {
			programs[c.Program] = true
			if !vias[&c.Via[0]] {
				vias[&c.Via[0]] = true
				elems += len(c.Via)
			}
		}
		mostVia = max(mostVia, elems)
	}
	issued.check(t)
	if len(programs) != ps.progs {
		t.Fatalf("vacuous run: only %v emitted", programs)
	}
	if issued.largest <= candChunk || mostVia <= viaChunk {
		t.Fatalf("vacuous run: the largest event has %d candidates and %d Via elements, the chunks %d and %d",
			issued.largest, mostVia, candChunk, viaChunk)
	}
	if issued.chunks < 3 || issued.chunks*2 > len(issued.got) {
		t.Fatalf("vacuous run: %d events' windows in %d chunks; want chunks that hold several events, and several chunks",
			len(issued.got), issued.chunks)
	}
}

// TestHandOverWorkersShareOnlyIssuedWindows runs two detect workers, each with
// a scratch of its own, over disjoint targets of one world while a third
// goroutine reads every window they have issued so far. Under the race
// detector a worker writing into memory it has already issued — its own
// chunk's or the other's — is a reported race; without it, the checksums a
// worker took at hand-over must still hold when both are done. With the
// scratches bound to one recycler, the reader releases each window once it
// has read it, as the delivery tier does: a chunk issued again while a window
// of it is unread is the race, or the checksum that no longer holds.
func TestHandOverWorkersShareOnlyIssuedWindows(t *testing.T) {
	type issuedWindow struct {
		cands []Candidate
		lease Lease
		sum   uint64
	}
	checksum := func(cands []Candidate) (sum uint64) {
		for _, c := range cands {
			sum = sum*31 + uint64(c.User) + uint64(c.Item)<<20 + uint64(len(c.Program))
			for _, v := range c.Via {
				sum = sum*31 + uint64(v)
			}
		}
		return sum
	}
	for _, recycled := range []bool{false, true} {
		t.Run(fmt.Sprintf("recycled=%v", recycled), func(t *testing.T) {
			ps := newEngineSet(t)
			ctx, stream := handOverWorld(2400)
			rec := NewRecycler()
			windows := make(chan issuedWindow, 64) // the reader lags the workers by a few hand-overs
			var workers sync.WaitGroup
			for w := 0; w < 2; w++ {
				workers.Add(1)
				go func(w int) {
					defer workers.Done()
					s := new(Scratch)
					if recycled {
						s = NewScratch(rec)
					}
					for _, e := range stream {
						if int(e.Dst)%2 != w {
							continue
						}
						ctx.D.Insert(e)
						for i, g := range ps.groups {
							g.StageInto(ctx, e, s, ps.slots[i])
						}
						if cands, lease := s.HandOver(nil); len(cands) > 0 {
							windows <- issuedWindow{cands, lease, checksum(cands)}
						}
					}
				}(w)
			}
			go func() {
				workers.Wait()
				close(windows)
			}()
			var all []issuedWindow
			for w := range windows {
				if got := checksum(w.cands); got != w.sum {
					t.Fatalf("window changed between hand-over and read: checksum %x, was %x", got, w.sum)
				}
				if recycled {
					w.lease.Release()
					w.cands = nil
				}
				all = append(all, w)
			}
			if len(all) < 100 {
				t.Fatalf("vacuous run: %d windows issued", len(all))
			}
			for _, w := range all {
				if got := checksum(w.cands); w.cands != nil && got != w.sum {
					t.Fatalf("window changed after hand-over: checksum %x, was %x", got, w.sum)
				}
			}
		})
	}
}
